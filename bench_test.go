package lockss

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation (each runs a representative data point of that experiment at
// reduced scale and reports the paper's metrics), the ablation benches for
// the design choices docs/ARCHITECTURE.md describes, and micro-benchmarks of
// the substrates.
//
// Full-fidelity regeneration of every figure is the job of
// cmd/lockss-sim (-scale paper); benchmarks must stay cheap enough to run
// as a suite.

import (
	"context"
	"testing"

	"lockss/internal/adversary"
	"lockss/internal/effort"
	"lockss/internal/experiment"
	"lockss/internal/ids"
	"lockss/internal/netsim"
	"lockss/internal/prng"
	"lockss/internal/protocol"
	"lockss/internal/reputation"
	"lockss/internal/sched"
	"lockss/internal/sim"
	"lockss/internal/wire"
	"lockss/internal/world"

	"lockss/internal/content"
)

// benchWorld is the shared reduced-scale population for figure benches.
func benchWorld() world.Config {
	cfg := world.Default()
	cfg.Peers = 25
	cfg.AUs = 4
	cfg.AUSize = 64 << 20
	cfg.Duration = 1 * sim.Year
	cfg.DamageDiskYears = 5
	return cfg
}

func reportRun(b *testing.B, s experiment.RunStats) {
	b.ReportMetric(s.AccessFailure, "afp")
	b.ReportMetric(s.SuccessfulPolls, "polls-ok")
}

func reportCmp(b *testing.B, c experiment.Comparison) {
	b.ReportMetric(c.Attack.AccessFailure, "afp")
	b.ReportMetric(c.DelayRatio, "delay-ratio")
	b.ReportMetric(c.Friction, "friction")
	if c.CostRatio > 0 {
		b.ReportMetric(c.CostRatio, "cost-ratio")
	}
}

// BenchmarkFigure2Baseline regenerates a Figure 2 data point: baseline
// access failure at the 3-month interval, 5-disk-year damage rate.
func BenchmarkFigure2Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchWorld()
		cfg.Seed = uint64(i + 1)
		s, err := experiment.RunOne(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		reportRun(b, s)
	}
}

// benchAttackPoint runs baseline+attack once and reports the ratios.
func benchAttackPoint(b *testing.B, mk func() adversary.Adversary) {
	for i := 0; i < b.N; i++ {
		cfg := benchWorld()
		cfg.Seed = uint64(i + 1)
		baseline, err := experiment.RunOne(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		attack, err := experiment.RunOne(cfg, mk)
		if err != nil {
			b.Fatal(err)
		}
		reportCmp(b, experiment.Compare(attack, baseline))
	}
}

// BenchmarkFigure3PipeStoppageAccess: pipe stoppage at 100% coverage for 90
// days (Figure 3's headline region — access failure).
func BenchmarkFigure3PipeStoppageAccess(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.PipeStoppage{Pulse: adversary.Pulse{Coverage: 1, Duration: 90 * sim.Day, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkFigure4DelayRatio: the same sweep point viewed as Figure 4
// (delay ratio), at 70% coverage.
func BenchmarkFigure4DelayRatio(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.PipeStoppage{Pulse: adversary.Pulse{Coverage: 0.7, Duration: 90 * sim.Day, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkFigure5Friction: Figure 5's coefficient of friction under a
// long, wide stoppage.
func BenchmarkFigure5Friction(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.PipeStoppage{Pulse: adversary.Pulse{Coverage: 1, Duration: 180 * sim.Day, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkFigure6AdmissionFlood: Figure 6's access failure under a
// sustained full-coverage admission-control attack.
func BenchmarkFigure6AdmissionFlood(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 1, Duration: benchWorld().Duration, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkFigure7AdmissionDelay: Figure 7's delay ratio at 40% coverage.
func BenchmarkFigure7AdmissionDelay(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 0.4, Duration: 90 * sim.Day, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkFigure8AdmissionFriction: Figure 8's coefficient of friction
// under the sustained flood.
func BenchmarkFigure8AdmissionFriction(b *testing.B) {
	benchAttackPoint(b, func() adversary.Adversary {
		return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 1, Duration: benchWorld().Duration, Recuperation: 30 * sim.Day}}
	})
}

// BenchmarkTable1BruteForce runs all three defection strategies of Table 1.
func BenchmarkTable1BruteForce(b *testing.B) {
	for _, d := range []adversary.Defection{adversary.DefectIntro, adversary.DefectRemaining, adversary.DefectNone} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			benchAttackPoint(b, func() adversary.Adversary {
				return &adversary.BruteForce{Defection: d}
			})
		})
	}
}

// --- Ablation benches (design choices described in docs/ARCHITECTURE.md) ---

func BenchmarkAblationRefractory(b *testing.B) {
	for _, days := range []int64{1, 4} {
		days := days
		b.Run(map[int64]string{1: "1day", 4: "4days"}[days], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchWorld()
				cfg.Protocol.Refractory = sched.Duration(days * int64(sim.Day))
				s, err := experiment.RunOne(cfg, func() adversary.Adversary {
					return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 1, Duration: cfg.Duration, Recuperation: 30 * sim.Day}}
				})
				if err != nil {
					b.Fatal(err)
				}
				reportRun(b, s)
			}
		})
	}
}

func BenchmarkAblationDropProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchWorld()
		cfg.Protocol.DropUnknown = 0.5
		cfg.Protocol.DropDebt = 0.4
		attack, err := experiment.RunOne(cfg, func() adversary.Adversary {
			return &adversary.BruteForce{Defection: adversary.DefectRemaining}
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(attack.AttackerEffort/attack.DefenderEffort, "cost-ratio")
	}
}

func BenchmarkAblationIntroductions(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchWorld()
				cfg.Protocol.Introductions = on
				s, err := experiment.RunOne(cfg, func() adversary.Adversary {
					return &adversary.AdmissionFlood{Pulse: adversary.Pulse{Coverage: 1, Duration: cfg.Duration, Recuperation: 30 * sim.Day}}
				})
				if err != nil {
					b.Fatal(err)
				}
				reportRun(b, s)
			}
		})
	}
}

func BenchmarkAblationDesynchronization(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchWorld()
				cfg.Protocol.Desynchronize = on
				s, err := experiment.RunOne(cfg, func() adversary.Adversary {
					return &adversary.BruteForce{Defection: adversary.DefectRemaining}
				})
				if err != nil {
					b.Fatal(err)
				}
				reportRun(b, s)
			}
		})
	}
}

func BenchmarkAblationEffortBalancing(b *testing.B) {
	for _, on := range []bool{true, false} {
		on := on
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchWorld()
				cfg.Protocol.EffortBalancing = on
				attack, err := experiment.RunOne(cfg, func() adversary.Adversary {
					return &adversary.BruteForce{Defection: adversary.DefectNone}
				})
				if err != nil {
					b.Fatal(err)
				}
				if attack.DefenderEffort > 0 {
					b.ReportMetric(attack.AttackerEffort/attack.DefenderEffort, "cost-ratio")
				}
			}
		})
	}
}

// BenchmarkRunScenario measures the declarative scenario path end to end: a
// three-point coverage sweep with per-point baseline comparison on the
// reduced-scale population. The shared baseline memoizes, so the benchmark
// reflects grid fan-out plus one baseline and three attack runs.
func BenchmarkRunScenario(b *testing.B) {
	spec := &experiment.Scenario{
		Name:        "bench-coverage-sweep",
		Description: "pipe stoppage coverage sweep",
		Base: func(o experiment.Options) world.Config {
			cfg := benchWorld()
			cfg.Seed = 1 + o.BaseSeed
			return cfg
		},
		Axes: []experiment.Axis{{
			Name:   "coverage",
			Values: []float64{0.4, 0.7, 1.0},
		}},
		Attack: func(o experiment.Options, cfg world.Config, pt experiment.Point) adversary.Adversary {
			return &adversary.PipeStoppage{Pulse: adversary.Pulse{
				Coverage: pt.At(0), Duration: 90 * sim.Day, Recuperation: 30 * sim.Day,
			}}
		},
		Seeds:   1,
		Compare: true,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunScenario(context.Background(), spec, experiment.Options{
			Scale: experiment.ScaleTiny, BaseSeed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Stats.AccessFailure, "afp")
		b.ReportMetric(last.Cmp.DelayRatio, "delay-ratio")
	}
}

// --- Micro-benchmarks of the substrates -------------------------------------

func BenchmarkEngineEventThroughput(b *testing.B) {
	e := sim.NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	b.ResetTimer()
	e.After(1, chain)
	e.Run(sim.Time(int64(b.N) + 10))
}

func BenchmarkSchedulerReserveRelease(b *testing.B) {
	s := sched.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, ok := s.ReserveSlot(sched.Time(i*10), 5, sched.Time(i*10+1000), "b")
		if !ok {
			b.Fatal("no slot")
		}
		if i%2 == 0 {
			s.Release(id)
		}
		if i%100 == 99 {
			s.GC(sched.Time(i * 10))
		}
	}
}

func BenchmarkMBFGenerate(b *testing.B) {
	m := effort.NewMBF(effort.DefaultMBFParams())
	ctx := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(ctx, 1, 1)
	}
}

func BenchmarkMBFVerify(b *testing.B) {
	m := effort.NewMBF(effort.DefaultMBFParams())
	ctx := []byte("bench")
	p, _ := m.Generate(ctx, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Verify(p, ctx) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkVoteHashesReal(b *testing.B) {
	spec := content.AUSpec{ID: 1, Name: "b", Size: 4 << 20, BlockSize: 64 << 10}
	r := content.NewRealReplica(spec, 1)
	nonce := []byte("nonce")
	b.SetBytes(spec.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.VoteHashes(nonce)
	}
}

func BenchmarkVoteCompareSymbolic(b *testing.B) {
	spec := content.AUSpec{ID: 1, Name: "b", Size: 512 << 20, BlockSize: 1 << 20}
	a := content.NewSimReplica(spec, 1)
	c := content.NewSimReplica(spec, 2)
	c.Damage(100)
	va := protocol.VoteDataOf(a, nil)
	vc := protocol.VoteDataOf(c, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vc.FirstDisagreement(va) != 100 {
			b.Fatal("comparison wrong")
		}
	}
}

func BenchmarkWireEncodeDecodeVote(b *testing.B) {
	m := &protocol.Msg{
		Type: protocol.MsgVote, AU: 1, PollID: 7, Poller: 1, Voter: 2,
		Vote:        protocol.SimVote{NumBlocks: 512, Dam: []content.DamageEntry{{Block: 3, Mark: 9}}},
		Nominations: []ids.PeerID{3, 4, 5, 6, 7, 8, 9, 10},
		Proof:       effort.SimProof{Effort: 0.02, Genuine: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := wire.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReputationConsider(b *testing.B) {
	l := reputation.NewList(reputation.DefaultParams(reputation.Duration(24*3600*1e9), reputation.Duration(90*24*3600*1e9)))
	rnd := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Consider(reputation.Time(i)*1000, ids.PeerID(uint32(i%1000+1)), rnd)
	}
}

func BenchmarkNetsimSend(b *testing.B) {
	eng := sim.NewEngine()
	net := netsim.New(eng)
	sink := 0
	net.AddNode(1, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond}, func(ids.PeerID, any, int) { sink++ })
	net.AddNode(2, netsim.Link{Bandwidth: netsim.FastEth, Latency: sim.Millisecond}, func(ids.PeerID, any, int) { sink++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, i, 100)
		if i%1024 == 1023 {
			eng.Run(sim.Time(1<<62) - 1)
		}
	}
	eng.Run(sim.Time(1<<62) - 1)
}

// BenchmarkFullPollRound measures one complete simulated poll round for a
// small population — the unit of work everything else multiplies.
func BenchmarkFullPollRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchWorld()
		cfg.Seed = uint64(i + 1)
		cfg.AUs = 1
		cfg.Duration = sim.Duration(cfg.Protocol.PollInterval) * 2
		cfg.DamageDiskYears = 0
		if _, err := experiment.RunOne(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches (§9 future work) -------------------------------------

// BenchmarkExtensionChurn measures a run with newcomers joining over time.
func BenchmarkExtensionChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchWorld()
		cfg.Seed = uint64(i + 1)
		w, err := world.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats := w.EnableChurn(world.Churn{JoinPerYear: 6, MaxJoins: 5, FriendsPerJoiner: 4})
		w.Run()
		b.ReportMetric(float64(stats.Integrated), "integrated")
		b.ReportMetric(float64(stats.NewcomerPollsOK), "newcomer-polls")
	}
}

// BenchmarkExtensionAdaptive measures the adaptive-acceptance defense under
// the brute-force REMAINING attack.
func BenchmarkExtensionAdaptive(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchWorld()
				cfg.Protocol.AdaptiveAcceptance = on
				cfg.Protocol.AdaptiveGain = 100
				baseline, err := experiment.RunOne(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				attack, err := experiment.RunOne(cfg, func() adversary.Adversary {
					return &adversary.BruteForce{Defection: adversary.DefectRemaining}
				})
				if err != nil {
					b.Fatal(err)
				}
				reportCmp(b, experiment.Compare(attack, baseline))
			}
		})
	}
}
