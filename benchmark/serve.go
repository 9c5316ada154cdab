package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The process supervisor. A stack is the set of simjoind processes one
// set-up boots; stop kills every one of them, by process group, and waits.

type proc struct {
	name string
	url  string
	args []string
	cmd  *exec.Cmd
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

type stack struct {
	bin, dir string
	mu       sync.Mutex
	procs    []*proc
}

// newStack makes a stack whose files live under a fresh directory of the
// run's scratch space, and registers its teardown with the exit paths.
func newStack(cfg runConfig) (*stack, error) {
	if cfg.simjoind == "" {
		return nil, fmt.Errorf("the serve_* workloads need -simjoind <built cmd/simjoind>; benchmark/run.sh passes it")
	}
	bin, err := filepath.Abs(cfg.simjoind)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "stack-")
	if err != nil {
		return nil, err
	}
	s := &stack{bin: bin, dir: dir}
	onExit(s.stop)
	return s, nil
}

// start launches simjoind on a free loopback port with the given extra
// arguments and waits until /healthz answers. The port is free when it is
// picked, not reserved: if something else takes it first the process
// exits, and start picks another.
func (s *stack) start(name string, args ...string) (*proc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var l net.Listener
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		p := &proc{name: name, url: "http://" + addr, args: append([]string{"-addr", addr}, args...)}
		if err = s.launch(p); err == nil {
			return p, nil
		}
		p.kill()
	}
	return nil, err
}

// launch (re)starts p with its recorded arguments, on its recorded port.
func (s *stack) launch(p *proc) error {
	p.cmd = exec.Command(s.bin, p.args...)
	// A group of its own, so that teardown can kill whatever the process
	// forked; and the kernel kills it if the harness itself is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// cmd.Stdout and cmd.Stderr stay nil: the daemon's access log, one
	// line per request, goes to /dev/null.
	if err := p.cmd.Start(); err != nil {
		p.cmd = nil // nothing to kill
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	p.exited = make(chan struct{})
	go func(cmd *exec.Cmd, exited chan struct{}) {
		_ = cmd.Wait() // the exit status of a killed process says nothing
		close(exited)
	}(p.cmd, p.exited)
	s.mu.Lock()
	if !slices.Contains(s.procs, p) { // a relaunch is already listed
		s.procs = append(s.procs, p)
	}
	s.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s at %s exited before it was healthy", p.name, p.url)
		default:
		}
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s at %s did not become healthy", p.name, p.url)
}

// kill ends one process with SIGKILL, as a crash would, and waits for it.
func (p *proc) kill() {
	if p.cmd == nil {
		return
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // fails only if already gone
	<-p.exited
	p.cmd = nil
}

// stop kills every process of the stack and removes its directory. It is
// safe to call twice.
func (s *stack) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		p.kill()
	}
	os.RemoveAll(s.dir)
}

// peakRSS sums the peak resident sets of the stack's live processes (a
// dead process has no /proc entry: read before stop).
func (s *stack) peakRSS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, p := range s.procs {
		if p.cmd != nil {
			total += hwmMB(p.cmd.Process.Pid)
		}
	}
	return total
}

// tenantKey authenticates the harness's one tenant at the gateway.
const tenantKey = "bench-key"

// writeTenants writes the gateway config: one tenant, no rate limit, and
// a max_pairs budget high enough that the estimate probe runs on every
// join and sheds none.
func (s *stack) writeTenants() (string, error) {
	path := filepath.Join(s.dir, "tenants.json")
	cfg := `{"tenants": [{"name": "bench", "key": "` + tenantKey + `", "max_pairs": 1000000000000}]}`
	return path, os.WriteFile(path, []byte(cfg), 0o644)
}

// conn is one closed-loop client connection: its own transport, so one
// TCP connection, reused for every request.
type conn struct {
	client *http.Client
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole answer. rec, when tracing,
// gets a round-trip span (request sent to headers back) and a body span
// under parent.
func (c *conn) do(rec *recorder, parent, op int, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Api-Key", tenantKey)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := rec.start("http.roundtrip", parent, op)
	resp, err := c.client.Do(req)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	id = rec.start("http.body", parent, op)
	data, err := io.ReadAll(resp.Body)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, nil
}

// timed sends one op's request under a root span called name and returns
// the answer and the latency. The caller checks the answer and then calls
// done, which closes the op's verify and root spans.
func (c *conn) timed(rec *recorder, name string, op int, method, url string, body []byte) (data []byte, took time.Duration, done func(), err error) {
	root := rec.start(name, -1, op)
	start := time.Now()
	data, err = c.do(rec, root, op, method, url, body)
	took = time.Since(start)
	check := rec.start("verify", root, op)
	return data, took, func() { rec.end(check); rec.end(root) }, err
}

// The wire shapes the harness depends on (README.md lists them).

type pointsBody struct {
	Points [][]float64 `json:"points"`
}

type pointQuery struct {
	Point  []float64 `json:"point"`
	Radius float64   `json:"radius,omitempty"`
	K      int       `json:"k,omitempty"`
}

type joinQuery struct {
	Eps float64 `json:"eps"`
}

type rangeAnswer struct {
	Indexes []int `json:"indexes"`
}

type knnAnswer struct {
	Neighbors []struct {
		Index int `json:"index"`
	} `json:"neighbors"`
}

type joinAnswer struct {
	Pairs [][2]int `json:"pairs"`
	Total int64    `json:"total"`
}

type datasetAnswer struct {
	Len int `json:"len"`
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only harness-built values of the types above reach here
	}
	return data
}

// datasetName is the one dataset every serving workload uses.
const datasetName = "bench"

func datasetURL(base, suffix string) string { return base + "/datasets/" + datasetName + suffix }

// upload PUTs pts as the dataset through base.
func upload(c *conn, base string, pts [][]float64) error {
	_, err := c.do(nil, -1, 0, http.MethodPut, datasetURL(base, ""), mustJSON(pointsBody{pts}))
	return err
}

// datasetLen asks base how long the dataset is.
func datasetLen(c *conn, base string) (int, error) {
	data, err := c.do(nil, -1, 0, http.MethodGet, datasetURL(base, ""), nil)
	if err != nil {
		return 0, err
	}
	var a datasetAnswer
	err = json.Unmarshal(data, &a)
	return a.Len, err
}

// scrape reads a tier's /metrics into series → value, labels included in
// the key as Prometheus prints them. It is best-effort: an unreachable
// tier or a renamed family leaves the map without the entry, and the
// metric derived from it reads 0.
func scrape(base string) map[string]float64 {
	out := make(map[string]float64)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every series of a metric family, whatever its labels; with
// match set, only series whose label text contains it.
func family(m map[string]float64, name, match string) float64 {
	total := 0.0
	for series, v := range m {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, match) {
			total += v
		}
	}
	return total
}

// delta is after minus before, family by family.
func delta(before, after map[string]float64, name, match string) float64 {
	return family(after, name, match) - family(before, name, match)
}

// meanMS is the mean of a histogram family over the scrape interval, in
// ms: the growth of its _sum over the growth of its _count.
func meanMS(before, after map[string]float64, name string) float64 {
	return 1000 * ratio(delta(before, after, name+"_sum", ""), delta(before, after, name+"_count", ""))
}
