package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"minimal", []string{"-dir", "models"}, ""},
		{"all knobs", []string{"-dir", "m", "-addr", ":0", "-workers", "4", "-max-batch", "128", "-max-inflight", "8"}, ""},
		{"shm with socket", []string{"-dir", "m", "-uds", "/tmp/m.sock", "-shm"}, ""},
		{"shm with segment dir", []string{"-dir", "m", "-uds", "/tmp/m.sock", "-shm", "-shm-dir", "/dev/shm"}, ""},
		{"missing dir", nil, "-dir is required"},
		{"negative workers", []string{"-dir", "m", "-workers", "-1"}, "-workers must be non-negative"},
		{"negative max-batch", []string{"-dir", "m", "-max-batch", "-5"}, "-max-batch must be non-negative"},
		{"negative max-inflight", []string{"-dir", "m", "-max-inflight", "-2"}, "-max-inflight must be non-negative"},
		{"shm without socket", []string{"-dir", "m", "-shm"}, "-shm requires -uds"},
		{"shm-dir without shm", []string{"-dir", "m", "-uds", "/tmp/m.sock", "-shm-dir", "/dev/shm"}, "-shm-dir requires -shm"},
		{"shadowing on", []string{"-dir", "m", "-shadow-rate", "0.01", "-shadow-dir", "/tmp/shadow"}, ""},
		{"shadow all knobs", []string{"-dir", "m", "-shadow-rate", "1", "-shadow-dir", "s",
			"-shadow-window", "64", "-drift-threshold", "0.95"}, ""},
		{"shadow rate above one", []string{"-dir", "m", "-shadow-rate", "1.5", "-shadow-dir", "s"}, "-shadow-rate must be in [0, 1]"},
		{"shadow rate negative", []string{"-dir", "m", "-shadow-rate", "-0.1", "-shadow-dir", "s"}, "-shadow-rate must be in [0, 1]"},
		{"shadow rate without dir", []string{"-dir", "m", "-shadow-rate", "0.5"}, "-shadow-rate requires -shadow-dir"},
		{"shadow dir without rate", []string{"-dir", "m", "-shadow-dir", "s"}, "-shadow-dir requires -shadow-rate"},
		{"drift threshold out of range", []string{"-dir", "m", "-shadow-rate", "0.5", "-shadow-dir", "s", "-drift-threshold", "2"}, "-drift-threshold must be in [0, 1]"},
		{"drift threshold without shadowing", []string{"-dir", "m", "-drift-threshold", "0.9"}, "-drift-threshold requires -shadow-rate"},
		{"negative shadow window", []string{"-dir", "m", "-shadow-rate", "0.5", "-shadow-dir", "s", "-shadow-window", "-1"}, "-shadow-window must be non-negative"},
		{"shadow window without shadowing", []string{"-dir", "m", "-shadow-window", "64"}, "-shadow-window requires -shadow-rate"},
		{"sharded", []string{"-dir", "m", "-shards", "4"}, ""},
		{"per-core shards", []string{"-dir", "m", "-shards", "0"}, ""},
		{"tenants", []string{"-dir", "m", "-tenants", "teamA:3,teamB:1"}, ""},
		{"tenant without weight", []string{"-dir", "m", "-tenants", "teamA:3,teamB"}, ""},
		{"negative shards", []string{"-dir", "m", "-shards", "-1"}, "-shards must be non-negative"},
		{"bad tenant weight", []string{"-dir", "m", "-tenants", "teamA:0"}, "-tenants:"},
		{"duplicate tenant", []string{"-dir", "m", "-tenants", "a:1,a:2"}, "-tenants:"},
		{"stray positional", []string{"-dir", "m", "stray"}, "unexpected arguments"},
		{"unknown flag", []string{"-dir", "m", "-frobnicate"}, "not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("parseFlags(%v) = %v", tc.args, err)
				}
				if cfg.dir == "" {
					t.Fatal("dir not captured")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseFlags(%v) err = %v, want %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-dir", "models"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9090" || cfg.maxBatch != 0 || cfg.inflight != 0 || cfg.workers <= 0 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestParseFlagsHelp(t *testing.T) {
	if _, err := parseFlags([]string{"-h"}, io.Discard); err != flag.ErrHelp {
		t.Fatalf("-h err = %v, want flag.ErrHelp", err)
	}
}

// TestHTTPServerTimeouts: the daemon's listener must not be
// slowloris-exposed — header reads and idle keep-alives are bounded.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", nil)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout > time.Minute {
		t.Fatalf("ReadHeaderTimeout = %v", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes <= 0 {
		t.Fatalf("MaxHeaderBytes = %v", srv.MaxHeaderBytes)
	}
}
