package main

import (
	"flag"
	"strings"
	"testing"
)

// TestFlagSurface pins trustdomaind's command line — every flag name with its
// default — to what it was before the daemons moved onto
// internal/daemon: bench/ and internal/e2e start the daemons with these
// flags, and operators' unit files do too. Usage strings may change;
// names and defaults may not.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"ceremony-deadline": "1m0s", "data": "", "debug-hooks": "false",
		"demo": "true", "fault-schedule": "", "fault-target": "trustdomaind",
		"frozen": "false", "metrics": "", "n": "3", "params": "deployment.json",
		"refresh": "0s", "slo-interval": "10s", "t": "2",
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
