package pbft

import (
	"fmt"
	"time"
)

// TimerMode selects how replicas implement the client-request view-change
// timer (§6 of the paper).
type TimerMode int

const (
	// SingleTimer reproduces the bug AVD discovered in the PBFT
	// implementation: one view-change timer per replica, reset whenever
	// any client request executes. A primary that executes a single
	// request per timer period never gets suspected.
	SingleTimer TimerMode = iota + 1
	// PerRequestTimer follows the protocol specification: one timer per
	// pending request, stopped only when that request executes.
	PerRequestTimer
)

// String names the timer mode.
func (m TimerMode) String() string {
	switch m {
	case SingleTimer:
		return "single-timer"
	case PerRequestTimer:
		return "per-request-timer"
	default:
		return fmt.Sprintf("timermode(%d)", int(m))
	}
}

// Config parameterizes a PBFT deployment. Use DefaultConfig as a base.
type Config struct {
	// N is the number of replicas; it must equal 3F+1.
	N int
	// F is the number of Byzantine faults tolerated.
	F int
	// BatchSize caps the number of requests per pre-prepare.
	BatchSize int
	// BatchDelay is how long the primary waits to fill a batch before
	// proposing it anyway.
	BatchDelay time.Duration
	// CheckpointInterval is the number of executed sequence numbers
	// between checkpoints (PBFT's K).
	CheckpointInterval uint64
	// WindowSize is the watermark window L: a replica accepts sequence
	// numbers in (h, h+L] where h is its last stable checkpoint.
	WindowSize uint64
	// ViewChangeTimeout is the client-request timer period after which a
	// replica suspects the primary (5 s in the deployment the paper
	// attacked).
	ViewChangeTimeout time.Duration
	// NewViewTimeout is how long a replica in view change waits for the
	// NEW-VIEW before moving to the next view. It doubles per attempt.
	NewViewTimeout time.Duration
	// TimerMode selects SingleTimer (buggy) or PerRequestTimer (spec).
	TimerMode TimerMode
	// QuorumBug injects a quorum-miscounting defect for oracle
	// validation: replicas treat F matching prepares (instead of 2F) and
	// F+1 matching commits (instead of 2F+1) as certificates. Combined
	// with an equivocating primary (ByzantineBehavior.Equivocate) this
	// lets correct replicas execute different batches at the same
	// sequence number — the agreement violation the oracle subsystem
	// exists to detect. Never enabled by default.
	QuorumBug bool
}

// DefaultConfig returns a 4-replica (f=1) configuration matching the
// deployment the paper attacked: 5-second view-change timer, batching
// enabled, the buggy single-timer implementation.
func DefaultConfig() Config {
	return Config{
		N:                  4,
		F:                  1,
		BatchSize:          64,
		BatchDelay:         2 * time.Millisecond,
		CheckpointInterval: 128,
		WindowSize:         256,
		ViewChangeTimeout:  5 * time.Second,
		NewViewTimeout:     2 * time.Second,
		TimerMode:          SingleTimer,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N != 3*c.F+1 {
		return fmt.Errorf("pbft: N=%d must equal 3F+1 with F=%d", c.N, c.F)
	}
	if c.F < 1 {
		return fmt.Errorf("pbft: F=%d must be at least 1", c.F)
	}
	if c.N > 64 {
		// Vote sets record per-replica votes in a 64-bit presence mask.
		return fmt.Errorf("pbft: N=%d exceeds the supported maximum of 64 replicas", c.N)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("pbft: batch size %d must be at least 1", c.BatchSize)
	}
	if c.CheckpointInterval < 1 {
		return fmt.Errorf("pbft: checkpoint interval %d must be at least 1", c.CheckpointInterval)
	}
	if c.WindowSize < c.CheckpointInterval {
		return fmt.Errorf("pbft: window %d must be at least the checkpoint interval %d",
			c.WindowSize, c.CheckpointInterval)
	}
	if c.ViewChangeTimeout <= 0 {
		return fmt.Errorf("pbft: view-change timeout must be positive")
	}
	if c.NewViewTimeout <= 0 {
		return fmt.Errorf("pbft: new-view timeout must be positive")
	}
	if c.TimerMode != SingleTimer && c.TimerMode != PerRequestTimer {
		return fmt.Errorf("pbft: invalid timer mode %d", int(c.TimerMode))
	}
	return nil
}

// PrimaryOf returns the primary replica ID of the given view.
func (c Config) PrimaryOf(view uint64) int { return int(view % uint64(c.N)) }

// Quorum returns the agreement quorum size 2F+1.
func (c Config) Quorum() int { return 2*c.F + 1 }

// prepareQuorum is the matching-prepare count that certifies an entry as
// prepared: 2F per the protocol, F under the injected QuorumBug defect.
func (c Config) prepareQuorum() int {
	if c.QuorumBug {
		return c.F
	}
	return 2 * c.F
}

// commitQuorum is the matching-commit count that certifies an entry as
// committed: 2F+1 per the protocol, F+1 under the injected QuorumBug.
func (c Config) commitQuorum() int {
	if c.QuorumBug {
		return c.F + 1
	}
	return c.Quorum()
}
