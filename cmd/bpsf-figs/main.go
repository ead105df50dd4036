// Command bpsf-figs regenerates the paper's tables and figures. Each
// experiment prints the rows the paper reports and writes its series as
// CSV into the data directory.
//
// Usage:
//
//	bpsf-figs -list
//	bpsf-figs -exp fig07 -shots 500
//	bpsf-figs -exp all -out data
//	bpsf-figs -exp fig07 -full          # paper-scale rounds and grids
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bpsf/internal/experiments"
	"bpsf/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-figs: ")
	exp := flag.String("exp", "", "experiment name, comma list, or 'all'")
	list := flag.Bool("list", false, "list experiment names")
	shots := flag.Int("shots", 0, "shots per point (0 = per-figure default)")
	seed := flag.Int64("seed", 0, "sampler seed (0 = default)")
	full := flag.Bool("full", false, "paper-scale rounds and error-rate grids (slow)")
	decoder := flag.String("decoder", "",
		"restrict decoder-grid experiments to one kind of "+fmt.Sprint(sim.DecoderNames())+" (empty = full grids; windowed wrappers match their inner kind)")
	outDir := flag.String("out", "data", "CSV output directory")
	workers := flag.Int("workers", runtime.NumCPU(),
		"parallelism across grid cells and Monte-Carlo shards (results are identical for any value)")
	flag.Parse()

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		log.Fatal("missing -exp (try -list)")
	}
	if err := validateDecoder(*decoder); err != nil {
		log.Fatal(err)
	}
	names := strings.Split(*exp, ",")
	if *exp == "all" {
		names = experiments.Names()
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	opts := experiments.Opts{Shots: *shots, Seed: *seed, Full: *full, Out: os.Stdout, Workers: *workers, Decoder: *decoder}
	for _, name := range names {
		name = strings.TrimSpace(name)
		t0 := time.Now()
		res, err := experiments.Run(name, opts)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if res.Notes != "" {
			fmt.Printf("   note: %s\n", res.Notes)
		}
		path := filepath.Join(*outDir, res.Name+".csv")
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.WriteCSV(f, res.Series...); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   wrote %s  [%v]\n\n", path, time.Since(t0).Round(time.Millisecond))
	}
}

// validateDecoder checks the -decoder filter against the decoder
// registry (empty means no filter); unknown names report the available
// set (the CLI exits non-zero on the returned error).
func validateDecoder(name string) error {
	if name == "" {
		return nil
	}
	_, err := sim.DecoderSpec(name)
	return err
}
