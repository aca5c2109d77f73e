package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mec"
	"repro/internal/serve"
)

// relTol is the tolerance for a reported reliability against Eq. (1)
// recomputed here; ledgerTol for a residual against its starting value.
const (
	relTol    = 1e-9
	ledgerTol = 1e-6
)

// checker counts operations and check failures. Any check failure makes the
// run incorrect; refused or failed operations only count as failed.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  int
	messages  []string
}

// fail records a failed check; the first few messages are reported.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.messages) < 10 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// count adds operations to the attempted and failed totals.
func (c *checker) count(attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += attempted
	c.failed += failed
}

// chainReliability is Eq. (1): u = Π_i 1-(1-r_i)^(n_i+1), the series
// composition of each function's parallel group of one primary and n_i
// backups.
func chainReliability(rs []float64, counts []int) float64 {
	u := 1.0
	for i, r := range rs {
		u *= 1 - math.Pow(1-r, float64(counts[i]+1))
	}
	return u
}

// checkAnswer verifies one 200 answer against the request and the network:
// primaries are cloudlets, every secondary lies within hop hops of its
// primary on a cloudlet, the reported reliabilities equal Eq. (1), and
// MetExpectation agrees with u >= ρ.
func checkAnswer(net *mec.Network, hop int, ar serve.AugmentRequest, resp *serve.AugmentResponse) error {
	n := len(ar.SFC)
	if len(resp.Primaries) != n || len(resp.Secondaries) != n || len(resp.BackupCounts) != n {
		return fmt.Errorf("answer %d: %d primaries, %d secondary lists, %d counts for %d functions",
			resp.ID, len(resp.Primaries), len(resp.Secondaries), len(resp.BackupCounts), n)
	}
	rs := make([]float64, n)
	counts := make([]int, n)
	for i, f := range ar.SFC {
		rs[i] = net.Catalog().Type(f).Reliability
		p := resp.Primaries[i]
		if len(ar.Primaries) > 0 && ar.Primaries[i] != p {
			return fmt.Errorf("answer %d: primary %d moved from %d to %d", resp.ID, i, ar.Primaries[i], p)
		}
		if p < 0 || p >= len(net.Capacity) || net.Capacity[p] <= 0 {
			return fmt.Errorf("answer %d: primary %d on %d, not a cloudlet", resp.ID, i, p)
		}
		allowed := net.NeighborsWithinPlus(p, hop)
		for _, s := range resp.Secondaries[i] {
			if !contains(allowed, s) || net.Capacity[s] <= 0 {
				return fmt.Errorf("answer %d: secondary of function %d on %d, outside the cloudlets within %d hop(s) of %d", resp.ID, i, s, hop, p)
			}
		}
		counts[i] = len(resp.Secondaries[i])
		if resp.BackupCounts[i] != counts[i] {
			return fmt.Errorf("answer %d: backup count %d for %d secondaries", resp.ID, resp.BackupCounts[i], counts[i])
		}
	}
	u := chainReliability(rs, counts)
	if math.Abs(u-resp.Reliability) > relTol {
		return fmt.Errorf("answer %d: reliability %.12f, Eq. (1) gives %.12f", resp.ID, resp.Reliability, u)
	}
	if u0 := chainReliability(rs, make([]int, n)); math.Abs(u0-resp.InitialReliability) > relTol {
		return fmt.Errorf("answer %d: initial reliability %.12f, Eq. (1) gives %.12f", resp.ID, resp.InitialReliability, u0)
	}
	if math.Abs(u-ar.Expectation) > relTol && resp.MetExpectation != (u >= ar.Expectation) {
		return fmt.Errorf("answer %d: met_expectation=%v with u=%.12f, rho=%v", resp.ID, resp.MetExpectation, u, ar.Expectation)
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// checkLedger verifies that no residual is below zero and, when restored is
// set (every session released), that each residual is back at its start.
func checkLedger(start, now []serve.CloudletState, restored bool) error {
	if len(start) != len(now) {
		return fmt.Errorf("ledger: %d cloudlets, started with %d", len(now), len(start))
	}
	for i, c := range now {
		if c.Residual < 0 {
			return fmt.Errorf("ledger: cloudlet %d residual %.6f below zero", c.ID, c.Residual)
		}
		if restored && math.Abs(c.Residual-start[i].Residual) > ledgerTol {
			return fmt.Errorf("ledger: cloudlet %d residual %.6f after every release, started at %.6f", c.ID, c.Residual, start[i].Residual)
		}
	}
	return nil
}
