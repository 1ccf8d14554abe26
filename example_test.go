package trinity_test

import (
	"fmt"

	trinity "gotrinity"
)

// Example demonstrates the minimal end-to-end workflow: generate a
// synthetic dataset, assemble it, and inspect the products.
func Example() {
	dataset := trinity.GenerateDataset(trinity.TinyProfile(42))
	result, err := trinity.Assemble(dataset.Reads, trinity.Config{K: 21, ThreadsPerRank: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("reads:", len(dataset.Reads))
	fmt.Println("transcripts produced:", len(result.Transcripts) > 0)
	// Output:
	// reads: 1500
	// transcripts produced: true
}

// ExampleAssemble_hybrid runs the paper's hybrid MPI+OpenMP Chrysalis
// by setting Ranks, and shows that the result is identical to the
// single-node run.
func ExampleAssemble_hybrid() {
	dataset := trinity.GenerateDataset(trinity.TinyProfile(7))
	serial, _ := trinity.Assemble(dataset.Reads, trinity.Config{K: 21, ThreadsPerRank: 2})
	hybrid, _ := trinity.Assemble(dataset.Reads, trinity.Config{K: 21, ThreadsPerRank: 2, Ranks: 4})
	fmt.Println("same transcript count:", len(serial.Transcripts) == len(hybrid.Transcripts))
	// Output:
	// same transcript count: true
}
