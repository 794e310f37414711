// Package leakcheck asserts, at the end of a test binary's run, that no
// goroutine spawned by this module's code is still alive — a
// snapshot-and-compare take on goleak without the dependency.
//
// The drain/Close guarantees introduced with the fault-tolerant campaign
// work (server.Drain, Coordinator.Drain, the worker-bench reaper) were
// originally checked by one dedicated test; wiring this package into a
// suite's TestMain checks them on every test run instead: any test that
// leaks a scheduler worker, a dispatch goroutine or a fault-injection timer
// fails the whole binary with the offending stacks printed.
//
// Usage, once per test package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Detection is by origin, not by count: after m.Run, every goroutine whose
// stack or creator mentions a module package ("c3d/...") must exit within a
// grace period. Runtime, testing and pure-stdlib goroutines (e.g. an idle
// HTTP keep-alive conn owned by a shared transport) are not attributed to
// the module and are ignored, which keeps the check immune to stdlib
// background machinery while still catching module goroutines parked inside
// stdlib frames — the creator line carries the module path.
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix attributes goroutines to this repo: every package path of
// the module starts with it, and it appears in both the frame symbols
// ("c3d/internal/server.(*scheduler).work") and "created by" lines.
const modulePrefix = "c3d/"

// Main runs the package's tests, then fails the binary if module-owned
// goroutines survive the grace period. It exits the process and therefore
// must be the last call in TestMain.
//
//c3dlint:allow unused(the goroutine-leak check the package tests run under)
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Check(5 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines leaked by module code after all tests passed:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls until no module-owned goroutine remains or the deadline
// passes, and returns the offending stacks ("" when clean). Goroutines
// finishing asynchronously (a Close that signals before its workers fully
// unwind) get the grace period to disappear.
func Check(grace time.Duration) string {
	// Shared transports keep idle connections whose readLoop goroutines were
	// created by module test code via the client; release them first so a
	// kept-alive connection is not mistaken for a leak.
	http.DefaultClient.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	deadline := time.Now().Add(grace)
	for {
		leaked := moduleGoroutines()
		if len(leaked) == 0 {
			return ""
		}
		if time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// moduleGoroutines snapshots all goroutine stacks and keeps those
// attributable to module code, excluding the calling goroutine.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			// The first record is this goroutine, running the check.
			continue
		}
		if strings.Contains(g, modulePrefix) {
			leaked = append(leaked, g)
		}
	}
	return leaked
}
