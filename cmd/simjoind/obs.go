package main

import (
	"runtime"
	"runtime/debug"
)

// defaultTraceCapacity is how many completed traces each daemon retains
// for GET /debug/traces.
const defaultTraceCapacity = 128

// buildVersion is the binary's identity block for /healthz, computed
// once: module version, VCS commit and dirty flag from the embedded
// build info, plus the Go toolchain — enough for a scrape or an
// incident report to say exactly which binary was serving.
var buildVersion = func() map[string]any {
	out := map[string]any{"go": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if v := bi.Main.Version; v != "" {
		out["version"] = v
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["commit"] = s.Value
		case "vcs.time":
			out["commit_time"] = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				out["dirty"] = true
			}
		}
	}
	return out
}()
