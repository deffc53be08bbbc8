package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/store"
)

// restartStore measures the disk store's one purpose, restart: a fresh
// process on an empty -store-dir (the write side, on top of a cold
// build), then a fresh process on the populated directory with unchanged
// sources (the read side). Both directions use the same artifact codecs,
// so a denser encoding that slows loading, or a lazier load that bloats
// the log, shows on one side or the other.
type restartStore struct {
	dir   string
	gen   *subject
	src   string
	files []string
}

func (r *restartStore) Name() string { return "restart-store" }

func (r *restartStore) Setup(e *env) error {
	r.dir = filepath.Join(e.Work, "restart")
	var err error
	if r.gen, err = newSubject(e, e.Sizes.Store, e.Seed); err != nil {
		return err
	}
	r.src = filepath.Join(r.dir, "src")
	if r.files, err = writeUnits(r.src, r.gen.Units); err != nil {
		return err
	}
	return warmUp(e, r.src, r.files)
}

func (r *restartStore) Teardown() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

func (r *restartStore) Measure(e *env) (*outcome, error) {
	out := &outcome{E2E: make(map[string]float64)}
	var cold, warm cliSamples
	var disk []float64
	cal := calibrator{self: e.Self}
	for pace := (rounds{min: e.Sizes.MinRounds, seconds: e.Seconds}); pace.next(); {
		sd := filepath.Join(r.dir, fmt.Sprintf("store-%d", pace.n))
		args := cliArgs(e.Nproc, r.files, "-store-dir", sd)
		if err := cal.sampleFresh(e.Sizes.CalPerOp); err != nil {
			return nil, err
		}
		res, err := runCLI(r.src, e.Pinpoint, args...)
		cold.add(&out.tally, "cold write", res, err)
		if n, err := dirBytes(sd); err == nil {
			disk = append(disk, float64(n)/(1<<20))
		}
		if err := cal.sampleFresh(e.Sizes.CalPerOp); err != nil {
			return nil, err
		}
		res, err = runCLI(r.src, e.Pinpoint, args...)
		warm.add(&out.tally, "warm restart", res, err)
		os.RemoveAll(sd)
	}
	fmt.Fprintln(e.Out, r.gen)
	printSamples(e.Out, "cold-write wall", "s", cold.Wall)
	printSamples(e.Out, "warm-restart wall", "s", warm.Wall)
	printSamples(e.Out, "warm-restart cpu", "s", warm.CPU)
	printSamples(e.Out, "warm-restart peak_rss", "MiB", warm.RSS)
	printSamples(e.Out, "store_disk_mb", "MiB", disk)
	if cold.First == nil || warm.First == nil {
		return out, nil
	}

	// Known answers: warm prints what cold printed; both print what a
	// storeless -workers 1 run prints; and that agrees with the truth.
	if !bytes.Equal(cold.First, warm.First) {
		out.wrong(1, "warm restart output differs from the cold run's")
	}
	verifyCLI(e, &out.tally, e.Sizes.Store.Name, cold.First, &r.gen.Truth)
	res, err := runCLI(r.src, e.Pinpoint, cliArgs(1, r.files)...)
	out.Attempted++
	if err != nil || !bytes.Equal(res.Stdout, cold.First) {
		out.wrong(1, "storeless -workers 1 output differs from the store runs' (err %v)", err)
	}

	out.Cal = cal.samples
	out.E2E["wall_s"] = median(warm.Wall)
	out.E2E["tail_wall_s"] = percentile(warm.Wall, 75)
	out.E2E["alt_wall_s"] = median(cold.Wall)
	out.E2E["cpu_s"] = median(warm.CPU)
	out.E2E["peak_rss_mb"] = median(warm.RSS)
	fmt.Fprintf(e.Out, "generator_cpu_share %.4f\n", (cold.genCPU+warm.genCPU)/(cold.wall+warm.wall))
	return out, nil
}

// Trace walks the same restart in process with the store in the
// benchmark's hands: open, a session that writes, close, reopen, a session
// that loads; then single-record Get/Put and a Compact on the real log.
func (r *restartStore) Trace(e *env, tr *tracer) (map[string]float64, *tally, error) {
	t := &tally{}
	l := layerSet{}
	root := tr.begin(0, "workload", "restart-store")
	defer tr.end(root)
	sd := filepath.Join(r.dir, "store-trace")

	// session builds and checks on st; update is how long Update took.
	session := func(st store.Store, what string) (a *core.Analysis, res detect.Results, update time.Duration, err error) {
		sp := tr.begin(root, "core.NewSession", what)
		sess := core.NewSession(core.BuildOptions{Workers: 1, Store: st})
		tr.end(sp)
		sp = tr.begin(root, "core.update", what)
		t0 := time.Now()
		a, err = sess.Update(r.gen.Units)
		update = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return
		}
		sp = tr.begin(root, "detect.checkall", what)
		res = a.CheckAll(checkers.All(), detect.Options{Workers: 1})
		tr.end(sp)
		return
	}
	open := func(what string) (*store.DiskStore, time.Duration, error) {
		sp := tr.begin(root, "store.open", what)
		defer tr.end(sp)
		t0 := time.Now()
		st, err := store.Open(sd, store.DiskOptions{})
		return st, time.Since(t0), err
	}

	t0 := time.Now()
	st, _, err := open("empty")
	if err != nil {
		return nil, t, err
	}
	cold, cres, _, err := session(st, "cold write")
	st.Close()
	if err != nil {
		return nil, t, err
	}
	st, openD, err := open("populated") // the index scan of a real log
	if err != nil {
		return nil, t, err
	}
	defer st.Close()
	warm, wres, warmUpdate, err := session(st, "warm read")
	if err != nil {
		return nil, t, err
	}
	l["harness.trace_overhead_share"] = tr.overheadShare(time.Since(t0))

	t.Attempted += 2
	ref := reportsJSON(cres.Reports)
	verifyCLI(e, t, "cold session", ref, &r.gen.Truth)
	if !bytes.Equal(reportsJSON(wres.Reports), ref) {
		t.wrong(1, "warm session reports differ from the cold session's")
	}

	l.addTimings(warm.Timings)
	l["store.save_s"] = cold.Timings.StoreSave.Seconds()
	l.setSizes(warm.Sizes, warm.PTAStats)
	var d detectTotals
	d.add(wres)
	l.setDetect(d, wres.Wall.Seconds())
	l["store.open_s"] = openD.Seconds()
	l["core.build_s"] = warmUpdate.Seconds()
	l["store.hit_share"] = share(warm.Artifacts.StoreHits, warm.Sizes.Functions)
	l["core.artifact_hit_share"] = share(warm.Artifacts.Hits, warm.Sizes.Functions)
	stat := st.Stat()
	l["store.log_mb"] = float64(stat.DiskBytes) / (1 << 20)
	l["store.records"] = float64(stat.Records)

	if err := probeStore(e, tr, root, l, st); err != nil {
		return nil, t, err
	}
	return l, t, nil
}

// probeStore times single records on the real, populated log: Put of
// fresh 4 KiB values, Get of the same, then Compact.
func probeStore(e *env, tr *tracer, parent int, l layerSet, st *store.DiskStore) error {
	val := bytes.Repeat([]byte("pinpoint"), 512)
	var put, get []float64
	for i := 0; i < e.Sizes.ProbeN; i++ {
		val[0] = byte(i)
		val[1] = byte(i >> 8)
		t0 := time.Now()
		if err := st.Put("bench", fmt.Sprintf("k%06d", i), val); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0))/1e3)
	}
	for i := 0; i < e.Sizes.ProbeN; i++ {
		t0 := time.Now()
		if _, ok, err := st.Get("bench", fmt.Sprintf("k%06d", i)); err != nil || !ok {
			return fmt.Errorf("store probe: Get k%06d: found %v, %v", i, ok, err)
		}
		get = append(get, float64(time.Since(t0))/1e3)
	}
	l["store.put_us"], l["store.get_us"] = median(put), median(get)
	sp := tr.begin(parent, "store.compact", "")
	t0 := time.Now()
	err := st.Compact()
	l["store.compact_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	return err
}
