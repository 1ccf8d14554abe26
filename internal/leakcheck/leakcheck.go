// Package leakcheck is a TestMain helper for the packages whose tests
// start MPI worlds: after a passing run, the goroutine count must
// settle back to what it was before the first test, or the run fails
// with a dump of the goroutines left over.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// Deadline bounds how long leftover goroutines (a delayed send, a
// receive that has yet to see its world end) get to exit.
const Deadline = 5 * time.Second

// Main runs m and exits with its code, or with 1 if goroutines are
// still running Deadline after a passing run.
func Main(m *testing.M) {
	start := Running()
	code := m.Run()
	if code == 0 {
		if n := Settle(start, Deadline); n > start {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines before the tests, %d still running %v after them:\n", start, n, Deadline)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}

// Settle waits up to d for Running to fall to at most want, and
// returns the last count seen.
func Settle(want int, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		n := Running()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Running counts the goroutines, leaving out os/signal's receive
// loop: once anything in the process asks for signals (the fuzz
// engine does), that loop runs until the process exits.
func Running() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return runtime.NumGoroutine() - bytes.Count(buf[:n], []byte("\nos/signal.loop("))
		}
		buf = make([]byte, 2*len(buf))
	}
}
