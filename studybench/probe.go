package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/branch"
	"repro/internal/characterize"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/trace"
)

// Probe budgets, in instructions. Each probe runs on the workload's own
// programs (reference input, test scale) and machines. The detailed,
// replay and memory-access probes start after a warmFill-instruction
// FunctionalWarm, so caches and predictors are filled; the fast-forward,
// warming, profile, memory-warming and branch probes start cold.
const (
	warmFill  = 200_000
	detailedN = 100_000
	ffN       = 400_000
	profileN  = 400_000
	replayPad = 20_000 // records past detailedN, for the core's fetch-ahead
	chi2Reps  = 50
)

// probeConfigs are the machines a workload's probes run on: the smallest
// and largest Table 3 machine for the architecture sweeps, the base
// machine (the only one it uses) for profile-all.
func probeConfigs(w workload) []sim.Config {
	if w.only == "ARCH" {
		cfgs := sim.ArchConfigs()
		return []sim.Config{cfgs[0], cfgs[len(cfgs)-1]}
	}
	return []sim.Config{sim.BaseConfig()}
}

func probeMain(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*wname)
	if err != nil {
		return err
	}
	m, err := probe(w)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(m)
}

// rates collects one value per probed (program, machine) pair; the
// reported figure is their median.
type rates map[string][]float64

func (r rates) add(name string, v float64) { r[name] = append(r[name], v) }

// allocated runs f and returns its wall time and the bytes it allocated.
func allocated(f func() error) (time.Duration, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, float64(after.TotalAlloc - before.TotalAlloc), err
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func probe(w workload) (map[string]float64, error) {
	r := rates{}
	for _, b := range w.benches {
		var p *program.Program
		d, alloc, err := allocated(func() (err error) {
			p, err = bench.Build(b, bench.Reference, sim.ScaleTest)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.add("bench.build_ms", d.Seconds()*1e3)
		r.add("bench.build_mb", alloc/(1<<20))
		for _, cfg := range probeConfigs(w) {
			if err := probePair(r, p, cfg); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", b, cfg.Name, err)
			}
		}
	}
	// SimPoint clustering at the costliest catalogue setting (10M
	// intervals, max_k 100, with the technique's seed and iteration
	// caps), on the workload's first program.
	p, err := bench.Build(w.benches[0], bench.Reference, sim.ScaleTest)
	if err != nil {
		return nil, err
	}
	spc := simpoint.DefaultConfig(sim.ScaleTest.Instr(10), 100)
	spc.Seeds, spc.MaxIter = 3, 40
	t0 := time.Now()
	if _, err := simpoint.BuildPlan(p, spc); err != nil {
		return nil, err
	}
	r.add("simpoint.build_plan_ms", time.Since(t0).Seconds()*1e3)

	out := map[string]float64{}
	for k, vs := range r {
		out[k] = median(vs)
	}
	return out, nil
}

func newRunner(p *program.Program, cfg sim.Config) *sim.Runner {
	rn, err := sim.NewRunner(p, cfg)
	if err != nil {
		panic(err) // the configurations are the program's own, already validated
	}
	return rn
}

func probePair(r rates, p *program.Program, cfg sim.Config) error {
	d, alloc, err := allocated(func() error {
		_, err := sim.NewRunner(p, cfg)
		return err
	})
	if err != nil {
		return err
	}
	r.add("sim.new_runner_ms", d.Seconds()*1e3)
	r.add("sim.new_runner_mb", alloc/(1<<20))

	// Functional modes, cold.
	rn := newRunner(p, cfg)
	t0 := time.Now()
	n := rn.FastForward(ffN)
	r.add("cpu.ff_ns_per_instr", nsPer(time.Since(t0), n))

	rn = newRunner(p, cfg)
	t0 = time.Now()
	n = rn.FunctionalWarm(warmFill)
	r.add("cpu.warm_ns_per_instr", nsPer(time.Since(t0), n))

	// Detailed, fed by the emulator, on the machine warmed just above.
	rn.Mark()
	t0 = time.Now()
	rn.Detailed(detailedN)
	d = time.Since(t0)
	st := rn.Window()
	r.add("cpu.detailed_ns_per_instr", nsPer(d, st.Instructions))
	r.add("cpu.detailed_ns_per_cycle", nsPer(d, st.Cycles))
	r.add("cpu.sim_cpi", st.CPI())
	r.add("mem.l1d_miss_rate", missRate(st.L1D))
	r.add("mem.l2_miss_rate", missRate(st.L2))
	if st.L1D.Accesses > 0 {
		r.add("mem.dtlb_miss_rate", float64(st.DTLBMisses)/float64(st.L1D.Accesses))
	}

	prof := cpu.NewProfile(p)
	rn = newRunner(p, cfg)
	t0 = time.Now()
	n = rn.Emu.RunProfile(profileN, prof)
	r.add("cpu.profile_ns_per_instr", nsPer(time.Since(t0), n))

	// Record the stream that follows the warm fill, then replay it
	// through the detailed core of a machine warmed the same way.
	rn = newRunner(p, cfg)
	rn.FastForward(warmFill)
	rn.StartRecording(detailedN + replayPad)
	rn.FastForward(detailedN + replayPad)
	recs := rn.StopRecording()

	rn = newRunner(p, cfg)
	rn.FunctionalWarm(warmFill)
	rn.BeginReplay(recs)
	rn.Mark()
	t0 = time.Now()
	rn.Detailed(detailedN)
	d = time.Since(t0)
	rn.EndReplay()
	r.add("cpu.replay_detailed_ns_per_instr", nsPer(d, rn.Window().Instructions))

	// The same stream's data accesses, straight into the hierarchy.
	reqs := dataRequests(p, recs)
	h, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return err
	}
	t0 = time.Now()
	h.WarmBatch(reqs)
	r.add("mem.warm_ns_per_req", nsPer(time.Since(t0), uint64(len(reqs))))

	rn = newRunner(p, cfg)
	rn.FunctionalWarm(warmFill)
	t0 = time.Now()
	rn.Hier.AccessBatch(reqs, nil)
	r.add("mem.access_ns", nsPer(time.Since(t0), uint64(len(reqs))))

	// Its conditional branches, into a cold predictor.
	pred, err := branch.NewPredictor(cfg.Pred)
	if err != nil {
		return err
	}
	var branches, correct uint64
	t0 = time.Now()
	for _, rec := range recs {
		if isa.IsCondBranch(p.Code[rec.PC].Op) {
			branches++
			if pred.Update(uint64(rec.PC)*isa.InstBytes, rec.Taken()) {
				correct++
			}
		}
	}
	r.add("branch.ns_per_branch", nsPer(time.Since(t0), branches))
	if branches > 0 {
		r.add("branch.accuracy", float64(correct)/float64(branches))
	}

	// χ² profile comparison: the profile above against the profile of
	// the window after it, as a technique's against the reference's.
	rn = newRunner(p, cfg)
	rn.FastForward(profileN)
	other := cpu.NewProfile(p)
	rn.Emu.RunProfile(profileN, other)
	t0 = time.Now()
	for i := 0; i < chi2Reps; i++ {
		if _, err := characterize.Profile(prof, other, 0.05); err != nil {
			return err
		}
	}
	r.add("characterize.profile_ms", time.Since(t0).Seconds()*1e3/chi2Reps)
	return nil
}

func missRate(s mem.CacheStats) float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// dataRequests turns a recorded stream's loads and stores into memory
// requests.
func dataRequests(p *program.Program, recs []trace.Rec) []mem.MemReq {
	var reqs []mem.MemReq
	for _, rec := range recs {
		switch isa.ClassOf(p.Code[rec.PC].Op) {
		case isa.ClassLoad:
			reqs = append(reqs, mem.MemReq{Addr: rec.Addr, Kind: mem.ReqLoad})
		case isa.ClassStore:
			reqs = append(reqs, mem.MemReq{Addr: rec.Addr, Kind: mem.ReqStore})
		}
	}
	return reqs
}
