package main

import "testing"

// TestTablesRun runs every table at toy scale. The tables print and time;
// they assert nothing, so the test is that none panics or exits (either
// ends the test binary with a failure).
func TestTablesRun(t *testing.T) {
	t.Chdir("../..") // Table II counts sources by a path relative to the repository root
	*scale = 6
	for _, tb := range tables {
		t.Run(tb.name, func(t *testing.T) { tb.f() })
	}
}
