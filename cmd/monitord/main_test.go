package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins monitord's command line — every flag name with its
// default — to what it was before the daemons moved onto
// internal/daemon: bench/ and internal/e2e start the daemons with these
// flags, and operators' unit files do too. Usage strings may change;
// names and defaults may not. A flag leaves this map only together with
// the code path it selected.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"data": "", "debug-hooks": "false",
		"fault-schedule": "", "fault-target": "monitord", "fsync-deadline": "2s",
		"listen": "127.0.0.1:0", "metrics": "", "name": "monitor",
		"params": "deployment.json", "rpc-timeout": "10s", "shards": "4",
		"slashable": "", "slo-interval": "10s", "trace": "64",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	for name, def := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("new flag -%s (default %q)", name, def)
		} else if w != def {
			t.Errorf("-%s defaults to %q, want %q", name, def, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("flag -%s is gone", name)
		}
	}
}
