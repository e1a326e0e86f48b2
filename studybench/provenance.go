package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// programPaths are the sources the benchmark builds the program from; a
// change under them makes the tree dirty for provenance.
var programPaths = []string{"go.mod", "cmd", "internal"}

// provenance stamps every result with what produced it and where.
type provenance struct {
	Commit     string `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`  // true also when it cannot be told
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func stamp() provenance {
	p := provenance{
		Commit: "unknown", Dirty: true,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if out, err := git(append([]string{"status", "--porcelain", "--"}, programPaths...)...); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return p
}

// git runs a git command on the working directory's own repository only:
// a checkout that is not one must not pick up an enclosing repository.
func git(args ...string) ([]byte, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	return cmd.Output()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// recordable refuses to record a baseline or pins from a tree whose
// program sources differ from a known commit.
func (p provenance) recordable() error {
	if p.Commit == "unknown" || p.Dirty {
		return fmt.Errorf("refusing to record from a dirty or unknown tree (commit %s, dirty %v): commit the program sources first", p.Commit, p.Dirty)
	}
	return nil
}

// sameHost refuses to compare results taken on different hosts or
// toolchains.
func (p provenance) sameHost(q provenance) error {
	if p.NumCPU != q.NumCPU || p.GOMAXPROCS != q.GOMAXPROCS || p.GoVersion != q.GoVersion || p.CPUModel != q.CPUModel {
		return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", p, q)
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares a new record against a baseline record of the
// same workload, metric by metric, against BENCHMARK.json's bounds. It
// exits non-zero on a regression beyond a bound, on a baseline from a
// dirty tree, and on records from different hosts.
func compareMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: studybench compare BASE.json NEW.json")
	}
	var base, cur record
	for i, r := range []*record{&base, &cur} {
		data, err := os.ReadFile(args[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, r); err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
	}
	if err := base.Provenance.recordable(); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := base.Provenance.sameHost(cur.Provenance); err != nil {
		return err
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace || base.Seconds != cur.Seconds {
		return errors.New("refusing to compare different workloads, trace modes or run lengths")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bound := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for k := range cur.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	regressed := false
	for _, k := range names {
		b, c := base.Result.Metrics[k].Value, cur.Result.Metrics[k].Value
		change := 0.0
		if b != 0 {
			change = (c - b) / b
		}
		verdict := ""
		if lim, ok := bound[k]; ok {
			verdict = "ok"
			if change > lim { // every end-to-end metric is lower-is-better
				verdict, regressed = "REGRESSED", true
			}
		}
		fmt.Printf("%-36s %14.6g -> %14.6g %+8.2f%% %s\n", k, b, c, change*100, verdict)
	}
	if !base.Result.Correct || !cur.Result.Correct {
		return errors.New("an output differs from its pinned digest")
	}
	if regressed {
		return errors.New("a metric regressed beyond its bound")
	}
	return nil
}

// pinMain records every workload's output digests into pins.json. It
// runs each study under two dispatch orders and refuses to pin if they
// disagree, or if the program sources are not a clean commit. Rebuild
// afterwards: the pins are compiled in.
func pinMain(args []string) error {
	if len(args) != 0 {
		return errors.New("usage: studybench pin")
	}
	prov := stamp()
	if err := prov.recordable(); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f := pinFile{Commit: prov.Commit, Workloads: map[string]pinned{}}
	for _, w := range workloads {
		var got []pinned
		for _, seed := range []int64{1, 2} {
			m, err := runChild(exe, w, seed, false)
			if err != nil {
				return err
			}
			p := pinned{Artifacts: map[string]string{}, Cells: m.Sample.Cells}
			for b, a := range m.Sample.Artifacts {
				p.Artifacts[b] = a.Digest
			}
			got = append(got, p)
		}
		a, _ := json.Marshal(got[0])
		b, _ := json.Marshal(got[1])
		if string(a) != string(b) {
			return fmt.Errorf("%s: outputs depend on the dispatch order; not pinning", w.name)
		}
		f.Workloads[w.name] = got[0]
		fmt.Printf("%s: %d artifacts, %d cells\n", w.name, len(got[0].Artifacts), len(got[0].Cells))
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("studybench/pins.json", append(data, '\n'), 0o644)
}
