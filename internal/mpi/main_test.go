package mpi

import (
	"testing"

	"gotrinity/internal/leakcheck"
)

// The package's tests start MPI worlds; none may leave a goroutine
// behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
