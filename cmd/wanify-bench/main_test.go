package main

import (
	"strings"
	"testing"
)

// TestRejectsBadFlags checks that a bad invocation exits 2 before any
// experiment prints: a -seeds below 1, an unknown -backend, an unknown
// experiment, and -scale, which is not a flag (every driver runs at its
// one input size).
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
		exit   int
	}{
		{[]string{"-run", "all", "-scale", "1"}, "flag provided but not defined: -scale", 2},
		{[]string{"-run", "all", "-seeds", "0"}, "-seeds 0", 2},
		{[]string{"-run", "all", "-seeds", "-3"}, "-seeds -3", 2},
		{[]string{"-run", "all", "-backend", "bogus"}, "bogus", 2},
		{[]string{"-run", "nosuch"}, "unknown experiment", 2},
		{[]string{"-seeds"}, "flag needs an argument", 2},
		{[]string{"-list", "-seeds", "5"}, "", 0},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr strings.Builder
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit %d, want %d (stderr %q)", got, tc.exit, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q does not name %q", stderr.String(), tc.stderr)
			}
			if tc.exit != 0 && stdout.Len() > 0 {
				t.Errorf("a rejected invocation printed %q", stdout.String())
			}
		})
	}
}
