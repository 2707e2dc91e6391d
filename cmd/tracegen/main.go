// Command tracegen captures a workload into a trace file that cmd/rfsim
// can replay across design points (the way the paper captures Simics
// injection traces once and replays them on Garnet).
//
// Usage:
//
//	tracegen -workload 1hotspot [-cycles N] [-rate R] [-seed S]
//	         [-multicast] [-mclocality 20] [-o trace.txt]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	workload := flag.String("workload", "uniform", "workload name or 'coherence'")
	cycles := flag.Int64("cycles", 200000, "cycles to capture")
	rate := flag.Float64("rate", 0, "transaction rate (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	multicast := flag.Bool("multicast", false, "augment with coherence multicasts")
	mcLocality := flag.Int("mclocality", 20, "multicast destination-set locality percent")
	mcRate := flag.Float64("mcrate", 0.05, "multicast injection probability per cycle")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	m := topology.New10x10()
	var gen traffic.Generator
	switch {
	case *workload == "coherence":
		gen = coherence.New(m, coherence.Workload{}, *seed)
	default:
		mk, err := experiments.LookupWorkload(m, *workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		gen = mk(*rate, *seed)
	}
	if *multicast && *workload != "coherence" {
		gen = traffic.NewMulticastAugment(m, gen, *mcRate, *mcLocality, *seed)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	n, err := traffic.WriteTrace(w, gen, *cycles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "captured %d messages over %d cycles\n", n, *cycles)
}
