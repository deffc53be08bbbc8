package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/server"
)

// TestProcess builds the binary once and drives what only a real process
// shows: flag wiring, exit statuses, the files a batch run writes, and the
// serve → evict → SIGTERM → drain → store close → warm restart chain.
// Everything else about the service has in-process tests in internal/server.
func TestProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pinpoint binary")
	}
	bin := filepath.Join(t.TempDir(), "pinpoint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	examples, err := filepath.Glob("../../examples/mc/*.mc")
	if err != nil || len(examples) < 2 {
		t.Fatalf("example sources: %v (%d found)", err, len(examples))
	}

	t.Run("batch", func(t *testing.T) {
		dir := t.TempDir()
		trace, stats := filepath.Join(dir, "trace.json"), filepath.Join(dir, "stats.json")
		args := append([]string{"-checkers", "all", "-workers", "-1", "-trace", trace, "-stats-json", stats}, examples...)
		// The examples contain bugs on purpose: exit 1 is "bugs reported".
		if _, code := run(t, bin, args...); code != 1 {
			t.Fatalf("exit status %d, want 1", code)
		}
		for _, f := range []string{trace, stats} {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(data) {
				t.Errorf("%s is not valid JSON", filepath.Base(f))
			}
		}
		// The build's stages partition its total.
		var dump struct{ Build map[string]int64 }
		if data, err := os.ReadFile(stats); err != nil || json.Unmarshal(data, &dump) != nil {
			t.Fatalf("reading %s: %v", stats, err)
		}
		sum := int64(0)
		for _, f := range []string{"parse_ns", "plan_ns", "lower_ns", "ssa_ns", "modref_ns", "transform_ns", "pta_seg_ns", "commit_ns"} {
			v, ok := dump.Build[f]
			if !ok {
				t.Errorf("-stats-json build has no %s", f)
			}
			sum += v
		}
		if _, ok := dump.Build["store_load_ns"]; !ok || sum != dump.Build["total_ns"] || sum == 0 {
			t.Errorf("-stats-json build: the stages sum to %d, total_ns is %d (%v)", sum, dump.Build["total_ns"], dump.Build)
		}

		// The same inputs twice over one -store-dir: the first process parses
		// and builds everything, the second neither parses nor builds.
		storeDir := filepath.Join(dir, "store")
		var cold []byte
		for _, warm := range []bool{false, true} {
			out, code := run(t, bin, append([]string{"-checkers", "all", "-format", "json", "-store-dir", storeDir, "-stats-json", stats}, examples...)...)
			if code != 1 {
				t.Fatalf("warm=%v: exit status %d, want 1", warm, code)
			}
			data, err := os.ReadFile(stats)
			if err != nil {
				t.Fatal(err)
			}
			var dump struct {
				Artifacts struct{ Hits, Misses, UnitsParsed int }
			}
			if err := json.Unmarshal(data, &dump); err != nil {
				t.Fatal(err)
			}
			if got := dump.Artifacts; warm != (got.UnitsParsed == 0) || warm != (got.Misses == 0) || !warm && got.UnitsParsed != len(examples) {
				t.Errorf("warm=%v: %+v of %d units", warm, got, len(examples))
			}
			if !warm {
				cold = out
			} else if !bytes.Equal(out, cold) {
				t.Errorf("the warm run prints other reports than the cold run")
			}
		}

		// A dump renders a function's body, blocks included, which no graph
		// keeps: a fresh build keeps it for the dump, so over the populated
		// store it prints what it prints without one.
		spec := "-dump=cfg:uaf_conditional"
		plain, _ := run(t, bin, append([]string{spec}, examples...)...)
		stored, _ := run(t, bin, append([]string{spec, "-store-dir", storeDir}, examples...)...)
		if !bytes.Contains(plain, []byte("-> b")) || !bytes.Equal(stored, plain) {
			t.Errorf("-dump over a populated store prints\n%s\nwithout one\n%s", stored, plain)
		}
	})

	t.Run("serve", func(t *testing.T) {
		// Two projects with different unit sets, so identical reports could
		// not come from one shared (un-namespaced) store slice by accident.
		projects := map[string][]string{"alpha": examples, "beta": examples[:2]}
		want := make(map[string]string)
		for p, files := range projects {
			out, code := run(t, bin, append([]string{"-checkers", "all", "-format", "json"}, files...)...)
			if code != 1 {
				t.Fatalf("%s: CLI exit status %d, want 1", p, code)
			}
			var reports []detect.JSONReport
			if err := json.Unmarshal(out, &reports); err != nil || len(reports) == 0 {
				t.Fatalf("%s: CLI reports: %v (%d decoded)", p, err, len(reports))
			}
			want[p] = marshal(t, reports)
		}

		// -max-tenants 1: admitting any project evicts the resident one,
		// which persists its artifacts before being dropped. The first
		// process starts on an empty store and must build everything; the
		// second, on the directory the first closed, must build nothing.
		storeDir := t.TempDir()
		for _, restarted := range []bool{false, true} {
			sp := startServe(t, bin, storeDir)
			for _, p := range []string{"alpha", "beta"} {
				resp := sp.analyze(t, p, projects[p])
				loaded, built := resp.Stats.ArtifactStoreHits, resp.Stats.ArtifactMisses
				if restarted != (loaded > 0) || restarted != (built == 0) {
					t.Errorf("%s, restarted=%v: %d artifacts loaded from the store, %d built", p, restarted, loaded, built)
				}
				if parsed, want := resp.Stats.UnitsParsed, map[bool]int{false: len(projects[p]), true: 0}[restarted]; parsed != want {
					t.Errorf("%s, restarted=%v: %d units parsed, want %d", p, restarted, parsed, want)
				}
				if got := marshal(t, resp.Reports); got != want[p] {
					t.Errorf("%s, restarted=%v: served reports differ from the CLI's\nserved: %s\ncli:    %s", p, restarted, got, want[p])
				}
			}
			sp.stop(t)
		}
	})
}

// run executes the binary to completion and returns its stdout and exit
// status.
func run(t *testing.T, bin string, args ...string) ([]byte, int) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%s: %v\n%s", bin, err, stderr.Bytes())
	}
	return out, cmd.ProcessState.ExitCode()
}

func marshal(t *testing.T, reports []detect.JSONReport) string {
	t.Helper()
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// grace is the -grace the served processes run with; stop allows as much
// again for the process to exit after the drain.
const grace = 10 * time.Second

// serveProc is one running `pinpoint serve`.
type serveProc struct {
	cmd  *exec.Cmd
	url  string
	done chan error // cmd.Wait's result, once the stderr reader has drained

	mu  sync.Mutex
	log bytes.Buffer
}

// startServe starts `pinpoint serve` on a kernel-chosen port over storeDir
// and waits for the "serving" log line that names the bound address.
func startServe(t *testing.T, bin, storeDir string) *serveProc {
	t.Helper()
	sp := &serveProc{done: make(chan error, 1)}
	sp.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-log-json",
		"-store-dir", storeDir, "-max-tenants", "1", "-grace", grace.String())
	stderr, err := sp.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sp.cmd.Process.Kill() })

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			sp.mu.Lock()
			sp.log.Write(sc.Bytes())
			sp.log.WriteByte('\n')
			sp.mu.Unlock()
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "serving" {
				select {
				case addr <- line.Addr:
				default:
				}
			}
		}
		sp.done <- sp.cmd.Wait()
	}()
	select {
	case a := <-addr:
		sp.url = "http://" + a
	case err := <-sp.done:
		t.Fatalf("serve exited during startup: %v\n%s", err, sp.logs())
	case <-time.After(30 * time.Second):
		t.Fatalf("serve never logged its address\n%s", sp.logs())
	}
	return sp
}

func (sp *serveProc) logs() string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.log.String()
}

// analyze POSTs files as project's units, named by the paths the CLI was
// given so positions in the reports agree.
func (sp *serveProc) analyze(t *testing.T, project string, files []string) server.AnalyzeResponse {
	t.Helper()
	req := server.AnalyzeRequest{Project: project}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		req.Units = append(req.Units, server.UnitJSON{Name: f, Src: string(src)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(sp.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%v\n%s", err, sp.logs())
	}
	defer resp.Body.Close()
	var ar server.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/analyze (%s): %s: %v\n%s", project, resp.Status, err, sp.logs())
	}
	if ar.Project != project {
		t.Errorf("response echoes project %q, want %q", ar.Project, project)
	}
	return ar
}

// stop sends SIGTERM and requires a clean exit (status 0: requests drained,
// store closed) inside the grace period.
func (sp *serveProc) stop(t *testing.T) {
	t.Helper()
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sp.done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v\n%s", err, sp.logs())
		}
	case <-time.After(2 * grace):
		t.Fatalf("serve still running %s after SIGTERM\n%s", 2*grace, sp.logs())
	}
	if !strings.Contains(sp.logs(), `"msg":"shutting down"`) {
		t.Errorf("no shutdown log line\n%s", sp.logs())
	}
}

// TestFlagSurface lists every flag of `pinpoint` and `pinpoint serve` with its
// default, so that a new knob is a diff of this table.
func TestFlagSurface(t *testing.T) {
	surface := func(define func(*flag.FlagSet)) string {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		define(fs)
		var b strings.Builder
		fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "-%s=%s\n", f.Name, f.DefValue) })
		return b.String()
	}
	for _, c := range []struct{ name, got, want string }{
		{"pinpoint", surface(func(fs *flag.FlagSet) { batchFlags(fs) }), `-checkers=uaf
-depth=6
-dump=
-format=text
-no-path-sensitivity=false
-pprof=
-provenance=false
-stats=false
-stats-json=
-store-dir=
-trace=
-witness=false
-workers=-1
`},
		{"pinpoint serve", surface(func(fs *flag.FlagSet) { serveFlags(fs) }), `-addr=127.0.0.1:7345
-grace=15s
-log-json=false
-log-level=info
-max-inflight=-1
-max-tenants=0
-request-timeout=2m0s
-store-dir=
-tenant-idle=0s
-workers=-1
`},
	} {
		if c.got != c.want {
			t.Errorf("%s flags:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}
