package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fp is the machine fingerprint recorded with every run.
type fp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUQuota   string `json:"cgroup_cpu_quota"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// Commit identifies the code measured: the git commit when the run
	// starts inside a work tree, else a hash of the Go sources.
	Commit string `json:"commit"`
}

func fingerprint(e env) fp {
	return fp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUQuota:   cpuQuota(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       e.seed,
		Commit:     commitID("."),
	}
}

// machineDiff lists the machine fields on which two fingerprints differ.
func (a fp) machineDiff(b fp) string {
	var diffs []string
	add := func(name string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("cgroup_cpu_quota", a.CPUQuota, b.CPUQuota)
	add("cpu_model", a.CPUModel, b.CPUModel)
	add("go_version", a.GoVersion, b.GoVersion)
	return strings.Join(diffs, "; ")
}

// cpuQuota reads the cgroup v2 CPU limit ("max 100000" when unlimited),
// falling back to cgroup v1.
func cpuQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 == nil && err2 == nil {
		return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID returns the checked-out git commit under root, resolved from
// .git without running git, or "src-" plus a hash of every .go, go.mod and
// shell file when root is not a work tree.
func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(b))
			}
		} else {
			return ref
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".sh") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
