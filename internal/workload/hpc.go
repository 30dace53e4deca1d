package workload

import (
	"time"

	"falcon/internal/sim"
)

// HPCConfig models a strong-scaled iterative HPC application (the role
// GROMACS benchpep and WRF CONUS 2.5km play in §6.3): each step divides a
// fixed compute workload across nodes, exchanges halos with ring
// neighbors, and closes with a small global reduction. As nodes grow,
// compute shrinks but communication doesn't, so scaling stalls when the
// transport's latency floor dominates — earlier on a slow stack.
type HPCConfig struct {
	// SerialComputePerStep is the single-node compute time per step.
	SerialComputePerStep time.Duration
	// Steps is how many iterations to run.
	Steps int
	// HaloBytes is exchanged with each ring neighbor every step.
	HaloBytes int
	// PMEBytes, when nonzero, adds a per-step AllToAll of this size
	// (GROMACS's PME grid redistribution): the p^2 small-message pattern
	// that stops kernel-TCP scaling cold.
	PMEBytes int
	// ReduceBytes is the per-step global reduction payload.
	ReduceBytes int
	// Ranks used for communication (typically one per node in the
	// model; intra-node parallelism is inside SerialComputePerStep).
	Nodes int
}

// DefaultGromacs approximates the benchpep-scale workload.
func DefaultGromacs(nodes int) HPCConfig {
	return HPCConfig{
		SerialComputePerStep: 12 * time.Millisecond,
		Steps:                20,
		HaloBytes:            512 << 10,
		PMEBytes:             2 << 10,
		ReduceBytes:          256,
		Nodes:                nodes,
	}
}

// DefaultWRF approximates the CONUS 2.5km workload: heavier halos, heavier
// compute.
func DefaultWRF(nodes int) HPCConfig {
	return HPCConfig{
		SerialComputePerStep: 60 * time.Millisecond,
		Steps:                10,
		HaloBytes:            2 << 20,
		PMEBytes:             0, // no all-to-all phase
		ReduceBytes:          512,
		Nodes:                nodes,
	}
}

// RunHPC executes the iteration model over the messenger and returns the
// achieved steps/second (the "performance" axis of Figures 27–28). The
// messenger must have cfg.Nodes ranks.
func RunHPC(s *sim.Simulator, m Messenger, cfg HPCConfig) float64 {
	if m.Ranks() != cfg.Nodes {
		panic("workload: messenger ranks must equal cfg.Nodes")
	}
	start := s.Now()
	var finished sim.Time

	compute := cfg.SerialComputePerStep / time.Duration(cfg.Nodes)
	var step func(k int)
	step = func(k int) {
		if k >= cfg.Steps {
			finished = s.Now()
			return
		}
		// Compute phase (perfectly parallel model).
		s.After(compute, func() {
			// Halo exchange: each rank sends to both ring
			// neighbors.
			var sends [][3]int
			for r := 0; r < cfg.Nodes; r++ {
				sends = append(sends, [3]int{r, (r + 1) % cfg.Nodes, cfg.HaloBytes})
				sends = append(sends, [3]int{r, (r + cfg.Nodes - 1) % cfg.Nodes, cfg.HaloBytes})
			}
			runPhase(m, sends, func() {
				afterPME := func() {
					AllReduce(m, cfg.ReduceBytes, func() { step(k + 1) })
				}
				if cfg.PMEBytes > 0 {
					AllToAll(m, cfg.PMEBytes, afterPME)
				} else {
					afterPME()
				}
			})
		})
	}
	step(0)
	s.Run()
	if finished == 0 {
		return 0
	}
	elapsed := finished.Sub(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(cfg.Steps) / elapsed.Seconds()
}
