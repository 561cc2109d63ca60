// Package leakcheck asserts that a test leaves no goroutines behind. It
// is deliberately stdlib-only and approximate: the check snapshots
// runtime.NumGoroutine at registration and, at cleanup, retries until the
// count returns to the baseline or a grace period elapses — absorbing
// pump goroutines that exit asynchronously after a Close. On timeout the
// failure message includes only the goroutine stacks that run repository
// code, so the leaking spawn site is named directly instead of buried
// under testing-framework frames.
//
// The gospawn analyzer proves every goroutine has a lifecycle hook to
// wait on; leakcheck proves the teardown paths actually use them.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace bounds how long the cleanup waits for goroutines that exit
// asynchronously after a Close (conn pumps, deadline callbacks) before
// declaring a leak.
const grace = 2 * time.Second

// Check snapshots the current goroutine count and registers a cleanup
// that fails the test if the count has not returned to that baseline
// within the grace period. Call it first in the test body, before the
// code under test spawns anything.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Errorf("leakcheck: %d goroutines at baseline, %d after cleanup; stacks in repository code:\n%s",
					base, runtime.NumGoroutine(), repoStacks())
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// repoStacks dumps every goroutine stack and keeps only those mentioning
// a repository package frame — the candidates for the leak.
func repoStacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var keep []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/") {
			keep = append(keep, g)
		}
	}
	if len(keep) == 0 {
		return "(none — the surplus goroutines are outside repository code)"
	}
	return strings.Join(keep, "\n\n")
}
