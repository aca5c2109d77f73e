package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/serve"
)

// ChaosConfig shapes the deterministic fault-injection schedule of a chaos
// run. It mirrors the DES fault model's alternating-renewal MTBF/MTTR knobs
// (internal/des.FaultConfig), with time measured in waves: every cloudlet
// alternates exponential up and down periods, and the resulting transitions
// are applied between waves through the service's /v1/node path — followed by
// one watchdog audit + re-augmentation round. The schedule is precomputed
// from Seed in ascending cloudlet order, so a fixed seed yields a
// bit-identical chaos run at any worker count.
type ChaosConfig struct {
	// Enabled turns fault injection on.
	Enabled bool
	// Seed drives the fault schedule (independent of the request stream's
	// Config.Seed). Default 1.
	Seed int64
	// MeanUpWaves is a cloudlet's mean number of waves between repair and
	// next failure (exponential; the MTBF knob). Default 8.
	MeanUpWaves float64
	// MeanDownWaves is a cloudlet's mean outage length in waves (exponential;
	// the MTTR knob). Default 2.
	MeanDownWaves float64
	// DegradedRatio is the probability a failure arrives as "degraded"
	// (capacity impaired, instances survive) instead of "down". Default 0.
	DegradedRatio float64
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanUpWaves <= 0 {
		c.MeanUpWaves = 8
	}
	if c.MeanDownWaves <= 0 {
		c.MeanDownWaves = 2
	}
	if c.DegradedRatio < 0 {
		c.DegradedRatio = 0
	}
	if c.DegradedRatio > 1 {
		c.DegradedRatio = 1
	}
	return c
}

// ChaosEvent is one scheduled node health transition.
type ChaosEvent struct {
	// Wave is the zero-based wave index after which the event applies.
	Wave   int
	Node   int
	Health string
}

// chaosSchedule is the precomputed event list, grouped by wave.
type chaosSchedule struct {
	byWave map[int][]ChaosEvent
}

// buildChaosSchedule pre-generates every cloudlet's failure/repair events
// over waves [0, horizon): an alternating-renewal process of exponential up
// then down periods, drawn in ascending cloudlet order so the schedule is a
// pure function of the config. Within a wave, events apply in (node,
// transition) generation order.
func buildChaosSchedule(cloudlets []int, cfg ChaosConfig, horizon int) *chaosSchedule {
	sort.Ints(cloudlets)
	rng := rand.New(rand.NewSource(cfg.Seed))
	expDraw := func(mean float64) float64 {
		return -mean * math.Log(1-rng.Float64())
	}
	sched := &chaosSchedule{byWave: make(map[int][]ChaosEvent)}
	for _, v := range cloudlets {
		t := expDraw(cfg.MeanUpWaves)
		for int(t) < horizon {
			health := serve.HealthDown
			if rng.Float64() < cfg.DegradedRatio {
				health = serve.HealthDegraded
			}
			failAt := int(t)
			sched.byWave[failAt] = append(sched.byWave[failAt], ChaosEvent{Wave: failAt, Node: v, Health: health})
			t += expDraw(cfg.MeanDownWaves)
			repairAt := int(t)
			if repairAt < horizon {
				sched.byWave[repairAt] = append(sched.byWave[repairAt], ChaosEvent{Wave: repairAt, Node: v, Health: serve.HealthUp})
			}
			t += expDraw(cfg.MeanUpWaves)
		}
	}
	return sched
}

// applyWave applies wave w's scheduled events through the service's node
// health path and runs one audit + re-augmentation round, appending the
// canonical chaos-log lines (timing-independent, so two identically seeded
// runs compare equal) and updating the result's chaos counters.
func (sched *chaosSchedule) applyWave(svc *serve.Service, res *Result, w int) {
	events := sched.byWave[w]
	for _, ev := range events {
		nr, err := svc.ApplyHealth(ev.Node, ev.Health, fmt.Sprintf("chaos wave %d", w))
		if err != nil {
			continue
		}
		res.NodeEvents++
		res.InstancesDestroyed += nr.InstancesDestroyed
		res.ChaosLines = append(res.ChaosLines, fmt.Sprintf(
			"wave=%d node=%d health=%s destroyed=%d affected=%d queued=%d",
			w, ev.Node, ev.Health, nr.InstancesDestroyed, nr.SessionsAffected, nr.ReaugQueued))
	}
	rep := svc.AuditOnce()
	recordReaug(res, w, rep)
}

// recordReaug folds one re-augmentation round into the result.
func recordReaug(res *Result, w int, rep serve.ReaugReport) {
	res.ReaugAttempted += rep.Attempted
	res.ReaugRestored += rep.Restored
	res.ReaugDegraded += rep.Degraded
	res.ReaugLost += rep.Lost
	if rep.Attempted == 0 {
		return
	}
	var olds []int
	for old := range rep.Remapped {
		olds = append(olds, old)
	}
	sort.Ints(olds)
	line := fmt.Sprintf("wave=%d reaug attempted=%d restored=%d degraded=%d retrying=%d lost=%d",
		w, rep.Attempted, rep.Restored, rep.Degraded, rep.Retrying, rep.Lost)
	for _, old := range olds {
		line += fmt.Sprintf(" %d->%d", old, rep.Remapped[old])
	}
	res.ChaosLines = append(res.ChaosLines, line)
}

// drain settles the re-augmentation queue after the last wave: backoff delays
// are measured in rounds, so a bounded number of extra rounds flushes every
// retry through to restored, degraded, or lost.
func (sched *chaosSchedule) drain(svc *serve.Service, res *Result, lastWave int) {
	for i := 1; svc.ReaugPending() > 0 && i <= chaosDrainRounds; i++ {
		recordReaug(res, lastWave+i, svc.AuditOnce())
	}
}

// chaosDrainRounds bounds the post-run settle loop; with the default retry
// budget of 3 the deepest backoff is 1+2+4 rounds, so 16 is generous.
const chaosDrainRounds = 16
