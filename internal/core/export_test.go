package core

// GateTotals sums the cycle and evaluation counts of every HW machine's
// gate-level simulator over the run.
func (cs *CoSim) GateTotals() (cycles, evals uint64) {
	for _, ex := range cs.hw {
		cycles += ex.driver.Sim.Cycles()
		evals += ex.driver.Sim.Evals()
	}
	return cycles, evals
}
