//go:build unix

package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"simjoin/internal/api"
)

// TestGatewaySIGHUPReloadsTenants: SIGHUP is the -tenants file's one
// reload trigger. After the file is rewritten with a new key and the
// process gets SIGHUP, the new key is admitted and the old one is 401.
func TestGatewaySIGHUPReloadsTenants(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, []any{})
	}))
	defer backend.Close()
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants := func(key string) {
		t.Helper()
		body := `{"tenants": [{"name": "acme", "key": "` + key + `"}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeTenants("old-key")

	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	h, stop, err := startGateway(logger, backend.URL, path, 1<<20)
	if err != nil {
		t.Fatalf("startGateway: %v", err)
	}
	defer stop()
	gw := httptest.NewServer(h)
	defer gw.Close()

	status := func(key string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, gw.URL+"/datasets", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("old-key"); got != http.StatusOK {
		t.Fatalf("old key before reload: status %d, want 200", got)
	}
	if got := status("new-key"); got != http.StatusUnauthorized {
		t.Fatalf("new key before reload: status %d, want 401", got)
	}

	writeTenants("new-key")
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for status("new-key") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("new key not admitted within 5s of SIGHUP")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := status("old-key"); got != http.StatusUnauthorized {
		t.Fatalf("old key after reload: status %d, want 401", got)
	}
}
