package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func writeConfig(t *testing.T, path string, cfg *Config) {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshaling config: %v", err)
	}
	// Write-then-rename so a poll never reads a half-written file —
	// the same discipline an operator's config push should use.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatalf("writing config: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatalf("renaming config: %v", err)
	}
}

func TestReloadSwapsKeysAndLimits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeConfig(t, path, oneTenant("acme", "old-key", nil))

	be := newFakeBackend(t)
	g, srv := bootGateway(t, oneTenant("placeholder", "x", nil), be.srv.URL)
	if err := g.LoadConfigFile(path); err != nil {
		t.Fatalf("LoadConfigFile: %v", err)
	}

	resp := doJoin(t, srv.URL, "old-key", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-reload key: status %d", resp.StatusCode)
	}

	writeConfig(t, path, oneTenant("acme", "new-key", func(tn *Tenant) {
		tn.MaxPairs = 10
	}))
	if err := g.Reload(); err != nil {
		t.Fatalf("Reload: %v", err)
	}

	resp = doJoin(t, srv.URL, "old-key", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked key still accepted: status %d", resp.StatusCode)
	}
	// New key works, and the reloaded max_pairs budget bites (backend
	// estimates 100 > 10).
	resp = doJoin(t, srv.URL, "new-key", "pts", map[string]any{"eps": 0.5}, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("reloaded max_pairs budget not applied: status %d", resp.StatusCode)
	}
	if g.Reloads() < 2 {
		t.Fatalf("reload counter %d, want >= 2", g.Reloads())
	}
}

func TestReloadKeepsBadConfigOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeConfig(t, path, oneTenant("acme", "k", nil))
	be := newFakeBackend(t)
	g, srv := bootGateway(t, oneTenant("placeholder", "x", nil), be.srv.URL)
	if err := g.LoadConfigFile(path); err != nil {
		t.Fatalf("LoadConfigFile: %v", err)
	}
	for _, bad := range []string{
		`{"tenants": [{"name": "", "key"`,
		// Well-formed, but names the retired float32 override field.
		`{"tenants": [{"name": "acme", "key": "k2"}], "experiments": [{"name": "e", "percent": 100, "override": {"float32": true}}]}`,
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatalf("corrupting config: %v", err)
		}
		if err := g.Reload(); err == nil {
			t.Fatalf("Reload accepted a bad config: %s", bad)
		}
		resp := doJoin(t, srv.URL, "k", "pts", map[string]any{"eps": 0.5}, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("previous config not preserved after failed reload: status %d", resp.StatusCode)
		}
	}
}

// TestReloadUnderTraffic hammers the gateway from many goroutines while
// the config is swapped repeatedly. The invariants: a key present in
// every config version never sees 401, in-flight requests finish
// normally across swaps, and (under -race) no reload/admission data
// race exists.
func TestReloadUnderTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	stable := Tenant{Name: "stable", Key: "stable-key", Weight: 1}
	writeConfig(t, path, &Config{Tenants: []Tenant{stable}})

	be := newFakeBackend(t)
	g, srv := bootGateway(t, oneTenant("placeholder", "x", nil), be.srv.URL)
	if err := g.LoadConfigFile(path); err != nil {
		t.Fatalf("LoadConfigFile: %v", err)
	}
	stop := make(chan struct{})
	go g.WatchConfig(stop, 5*time.Millisecond)
	defer close(stop)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	var unauthorized, served atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp := doJoin(t, srv.URL, "stable-key", "pts", map[string]any{"eps": 0.5}, nil)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusUnauthorized:
					unauthorized.Add(1)
				case http.StatusTooManyRequests:
					// Rotating limits may legitimately shed; never 401.
				default:
					t.Errorf("unexpected status %d during reload churn", resp.StatusCode)
				}
			}
		}()
	}

	// Swap the config as fast as the poll watcher picks it up,
	// alternating limits and the set of other tenants around the
	// stable one.
	swaps := 0
	for ctx.Err() == nil {
		cfg := &Config{Tenants: []Tenant{stable}}
		if swaps%2 == 0 {
			cfg.Tenants[0].RatePerSec = 100000
			cfg.Tenants[0].Burst = 100000
			cfg.Tenants = append(cfg.Tenants, Tenant{Name: fmt.Sprintf("t%d", swaps), Key: fmt.Sprintf("k%d", swaps)})
		} else {
			cfg.Tenants[0].MaxInFlight = 64
			cfg.Experiments = []Experiment{{Name: "e", Percent: 50, Override: Override{Algorithm: "brute"}}}
		}
		writeConfig(t, path, cfg)
		// mtime granularity can swallow rapid swaps; also drive Reload
		// directly so the swap count is meaningful.
		if err := g.Reload(); err != nil {
			t.Errorf("Reload: %v", err)
		}
		swaps++
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	if n := unauthorized.Load(); n != 0 {
		t.Fatalf("stable key saw %d unauthorized responses across %d swaps", n, swaps)
	}
	if served.Load() == 0 {
		t.Fatal("no request succeeded during reload churn")
	}
	if swaps < 10 {
		t.Fatalf("only %d swaps in the test window", swaps)
	}
	g.ShadowDrain()
}
