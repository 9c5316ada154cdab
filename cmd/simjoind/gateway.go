package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"simjoin/internal/gateway"
)

// startGateway builds the -gateway handler: the multi-tenant front door
// over the one -backends URL, with the -tenants config installed and
// reloaded on SIGHUP. The returned stop func stops the SIGHUP handler
// and drains in-flight shadow requests.
func startGateway(logger *slog.Logger, backendsFlag, tenantsPath string, maxBody int64) (http.Handler, func(), error) {
	if backendsFlag == "" {
		return nil, nil, fmt.Errorf("-gateway requires -backends")
	}
	if tenantsPath == "" {
		return nil, nil, fmt.Errorf("-gateway requires -tenants (see docs/GATEWAY.md for the config shape)")
	}
	urls, err := parseWorkers(backendsFlag)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing -backends: %w", err)
	}
	if len(urls) > 1 {
		return nil, nil, fmt.Errorf("-backends takes one URL, got %d; to front a worker fleet, run a coordinator over it (-workers) and point -backends at the coordinator", len(urls))
	}
	g, err := gateway.New(gateway.Options{
		Backend: urls[0],
		Logger:  logger,
		MaxBody: maxBody,
		Build:   buildVersion,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := g.LoadConfigFile(tenantsPath); err != nil {
		return nil, nil, err
	}
	logger.Info("gateway config loaded", "path", tenantsPath, "backend", urls[0])

	stop := make(chan struct{})
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for {
			select {
			case <-stop:
				signal.Stop(hup)
				return
			case <-hup:
				if err := g.Reload(); err != nil {
					logger.Error("SIGHUP reload failed; keeping previous config", "error", err)
				} else {
					logger.Info("SIGHUP reload applied", "path", tenantsPath)
				}
			}
		}
	}()
	return g.Handler(), func() {
		close(stop)
		g.ShadowDrain()
	}, nil
}
