package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"orderopt/internal/server"
)

// header records what the run measured and on what: the code (commit,
// or a hash of the source tree where there is no git checkout), the
// machine, and diagnostics such as host steal time that explain a slow
// run without being metrics themselves.
type header struct {
	Workload         string    `json:"workload"`
	Seed             int64     `json:"seed"`
	Seconds          float64   `json:"seconds"`
	Trace            bool      `json:"trace"`
	Commit           string    `json:"commit"`
	SourceSHA256     string    `json:"source_sha256"`
	CPU              string    `json:"cpu"`
	NProc            int       `json:"nproc"`
	GOMAXPROCS       int       `json:"gomaxprocs"`
	ServerGOMAXPROCS int       `json:"server_gomaxprocs"`
	ServerWorkers    int       `json:"server_workers"`
	GoVersion        string    `json:"go_version"`
	StealPct         float64   `json:"steal_pct"`
	LifetimeStealPct []float64 `json:"lifetime_steal_pct"` // ascending; the first ones were kept
	Unsupported      []string  `json:"unsupported_percentiles,omitempty"`
	Problems         []string  `json:"problems,omitempty"`

	steal0, total0 uint64
}

func newHeader(cfg config) *header {
	h := &header{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		Commit:       commit(cfg.root),
		SourceSHA256: sourceHash(cfg.root),
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
	}
	h.steal0, h.total0 = readSteal()
	return h
}

func (h *header) serverInfo(hr server.HealthResponse) {
	h.ServerGOMAXPROCS, h.ServerWorkers = hr.GoMaxProcs, hr.Workers
}

func (h *header) problem(msgs ...string) { h.Problems = append(h.Problems, msgs...) }

// unsupported flags a percentile some class has too few samples for.
func (h *header) unsupported(name string) { h.Unsupported = append(h.Unsupported, name) }

// finish records the host steal time over the run.
func (h *header) finish() {
	steal, total := readSteal()
	if total > h.total0 {
		h.StealPct = 100 * float64(steal-h.steal0) / float64(total-h.total0)
	}
}

func (h *header) print(w io.Writer) error {
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "header %s\n", b)
	return err
}

// commit is the git HEAD of root, or "none" when root is not the top
// of a git checkout. Git is kept from searching the directories above
// root.
func commit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "none"
	}
	cmd := osexec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the paths and contents of the tree's Go sources
// and go.mod files, so runs of identical code carry the same identity
// with or without git.
func sourceHash(root string) string {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(sum, "%s\x00%d\x00", rel, len(b))
		sum.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(sum.Sum(nil))
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

// readSteal returns the host's cumulative steal and total CPU time
// from the first line of /proc/stat (zeros where unavailable).
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal: guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
