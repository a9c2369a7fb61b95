package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// baselinePath is the committed paper-harness run the tables workload is
// checked against at seed 1 (the seed that run used).
const baselinePath = "paper_runs/baseline/results.csv"

// baselineSeed is the payload seed of the committed baseline run.
const baselineSeed = 1

// cellOut is what a grid cell is checked on.
type cellOut struct {
	EnergyJ   float64
	ISSCalls  uint64
	ISSInsts  uint64
	GateExecs uint64
}

// baselineKey names one row of the baseline: the experiment's variant
// ("base", "ecache", "macro", "sampling") at one DMA size, repeat 0.
type baselineKey struct {
	Experiment string
	Variant    string
	DMA        int
}

// parseBaseline reads the repeat-0 rows of a paper-harness results.csv,
// resolving columns by header name.
func parseBaseline(r io.Reader, packets int) (map[baselineKey]cellOut, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("baseline: no rows")
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	need := []string{"experiment", "variant", "dma", "packets", "repeat", "energy_j", "iss_calls", "iss_insts", "gate_execs"}
	for _, name := range need {
		if _, ok := col[name]; !ok {
			return nil, fmt.Errorf("baseline: missing column %q", name)
		}
	}
	out := map[baselineKey]cellOut{}
	for line, rec := range recs[1:] {
		if len(rec) != len(recs[0]) {
			return nil, fmt.Errorf("baseline: row %d has %d fields, header %d", line+2, len(rec), len(recs[0]))
		}
		get := func(name string) string { return rec[col[name]] }
		if get("repeat") != "0" || get("packets") != strconv.Itoa(packets) {
			continue
		}
		dma, err := strconv.Atoi(get("dma"))
		if err != nil {
			return nil, fmt.Errorf("baseline: row %d dma: %w", line+2, err)
		}
		var c cellOut
		if c.EnergyJ, err = strconv.ParseFloat(get("energy_j"), 64); err != nil {
			return nil, fmt.Errorf("baseline: row %d energy_j: %w", line+2, err)
		}
		for _, f := range []struct {
			name string
			dst  *uint64
		}{{"iss_calls", &c.ISSCalls}, {"iss_insts", &c.ISSInsts}, {"gate_execs", &c.GateExecs}} {
			if *f.dst, err = strconv.ParseUint(get(f.name), 10, 64); err != nil {
				return nil, fmt.Errorf("baseline: row %d %s: %w", line+2, f.name, err)
			}
		}
		out[baselineKey{get("experiment"), get("variant"), dma}] = c
	}
	return out, nil
}

func loadBaseline(packets int) (map[baselineKey]cellOut, error) {
	f, err := os.Open(baselinePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBaseline(f, packets)
}
