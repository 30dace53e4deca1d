package workload

import (
	"time"

	"falcon/internal/sim"
)

// Pipe abstracts the transport a live migration runs over: bulk transfers
// (pre-copy, post-copy background) and latency-sensitive single-page
// fetches (post-copy on-demand faults). Implemented over Falcon RDMA and
// the Pony Express model for Figure 29.
type Pipe interface {
	// Transfer moves n bytes of guest memory; done at completion.
	Transfer(n int, done func())
	// Fetch performs one on-demand page fetch (round trip).
	Fetch(n int, done func())
}

// MigrationConfig describes the guest and its workload (Figure 29: "the
// guest VM continuously accesses and dirties its memory throughout").
type MigrationConfig struct {
	// MemoryBytes is the guest memory size.
	MemoryBytes int64
}

// DefaultMigration returns a 16 GiB guest.
func DefaultMigration() MigrationConfig {
	return MigrationConfig{MemoryBytes: 16 << 30}
}

// The guest's fixed page size and rates follow the paper's stress
// pattern: the guest "continuously accesses and dirties its memory
// throughout the migration" — fast enough that pre-copy cannot fully
// converge and the post-copy phase does real work.
const (
	// pageBytes is the page size.
	pageBytes = 4096
	// dirtyRatePagesPerSec is how fast the running guest dirties pages.
	dirtyRatePagesPerSec = 1_500_000
	// accessRatePagesPerSec is how fast the guest tries to touch pages
	// (post-copy demand).
	accessRatePagesPerSec = 1_000_000
	// preCopyRounds caps pre-copy iterations before the blackout.
	preCopyRounds = 3
)

// MigrationResult reports the Figure 29 metrics.
type MigrationResult struct {
	PreCopy  time.Duration
	Blackout time.Duration
	PostCopy time.Duration
	// GuestAccessRate is the achieved post-copy access rate (pages/s).
	GuestAccessRate float64
	// VCPUWait is the total time vCPUs stalled on on-demand fetches.
	VCPUWait time.Duration
}

// RunMigration executes the two-phase migration model over the pipe and
// returns the phase timings. It runs the simulator to completion.
func RunMigration(s *sim.Simulator, p Pipe, cfg MigrationConfig) MigrationResult {
	var res MigrationResult
	totalPages := cfg.MemoryBytes / pageBytes

	// --- Pre-copy: transfer the dirty set while the guest keeps
	// dirtying. Each round transfers the current dirty set in
	// chunks of at most 4096 pages; dirtying continues during the transfer.
	dirty := totalPages
	preStart := s.Now()
	round := 0

	var blackout func()
	var preRound func()
	preRound = func() {
		toSend := dirty
		dirty = 0
		var pump func(remaining int64)
		pump = func(remaining int64) {
			if remaining <= 0 {
				round++
				// Converged enough, or out of rounds?
				if round >= preCopyRounds || dirty < totalPages/100 {
					blackout()
					return
				}
				preRound()
				return
			}
			// Send a bounded chunk per Transfer so dirtying
			// interleaves with transfer progress.
			pages := remaining
			if pages > 4096 {
				pages = 4096
			}
			bytes := pages * pageBytes
			tStart := s.Now()
			p.Transfer(int(bytes), func() {
				elapsed := s.Now().Sub(tStart).Seconds()
				newlyDirty := int64(dirtyRatePagesPerSec * elapsed)
				if newlyDirty > totalPages {
					newlyDirty = totalPages
				}
				dirty += newlyDirty
				if dirty > totalPages {
					dirty = totalPages
				}
				pump(remaining - pages)
			})
		}
		pump(toSend)
	}

	// --- Blackout and post-copy.
	blackout = func() {
		res.PreCopy = s.Now().Sub(preStart)
		// Fixed brief blackout: vCPU state + device state.
		const blackoutTime = 50 * time.Millisecond
		res.Blackout = blackoutTime
		s.After(blackoutTime, func() {
			postStart := s.Now()
			remaining := dirty // pages not yet at the target
			missingFrac := func() float64 {
				return float64(remaining) / float64(totalPages)
			}
			accessesDone := 0.0
			var postIter func()
			postIter = func() {
				if remaining <= 0 {
					res.PostCopy = s.Now().Sub(postStart)
					if res.PostCopy > 0 {
						res.GuestAccessRate = accessesDone / res.PostCopy.Seconds()
					}
					return
				}
				// Background fetch: one bounded bulk transfer per
				// iteration; accesses and faults are accounted
				// against the iteration's actual elapsed time.
				pages := remaining
				if pages > 2048 {
					pages = 2048
				}
				bgBytes := pages * pageBytes
				miss := missingFrac()
				iterStart := s.Now()
				// Sample one representative on-demand fetch; its
				// round trip scales to the iteration's expected
				// fault count (known once elapsed time is known).
				var fetchLat time.Duration
				p.Fetch(pageBytes, func() { fetchLat = s.Now().Sub(iterStart) })
				p.Transfer(int(bgBytes), func() {
					elapsed := s.Now().Sub(iterStart).Seconds()
					faults := accessRatePagesPerSec * elapsed * miss
					res.VCPUWait += time.Duration(float64(fetchLat) * faults)
					// Hits proceed at full rate; faulting
					// accesses are stalled for the iteration.
					accessesDone += accessRatePagesPerSec * elapsed * (1 - miss*0.9)
					remaining -= pages
					s.After(0, postIter)
				})
			}
			postIter()
		})
	}

	preRound()
	s.Run()
	return res
}
