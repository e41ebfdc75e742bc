package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostRecord identifies the machine and build a run was measured on.
// Results are only comparable when the host part matches.
type hostRecord struct {
	CPUModel string `json:"cpu_model"`
	NProc    int    `json:"nproc"`
	AVX2     bool   `json:"avx2"`
	FMA      bool   `json:"fma"`
	// AVX512VNNI is true when the CPU reports AVX512F, AVX512VL and
	// AVX512_VNNI, the features the int8 GEMM's assembly kernel needs;
	// Int8Path names the kernel that therefore ran.
	AVX512VNNI bool   `json:"avx512_vnni"`
	Int8Path   string `json:"int8_path"`
	F32Path    string `json:"f32_path"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`

	// GOMAXPROCS of this load generator and of the prionnd daemon (the
	// daemon inherits the environment, so it is GOMAXPROCS when set and
	// the visible CPU count otherwise).
	GeneratorProcs int `json:"generator_gomaxprocs"`
	DaemonProcs    int `json:"daemon_gomaxprocs"`

	// SourceDigest is a SHA-256 over the repository's Go sources and
	// module files: the commit under test, also in checkouts that are
	// not git repositories.
	SourceDigest string `json:"source_digest"`
}

// differs names the first host property that makes two records
// incomparable, or returns "" when they match. The source digest is
// left out: comparing two commits on one host is the point.
func (h hostRecord) differs(o hostRecord) string {
	switch {
	case h.CPUModel != o.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", h.CPUModel, o.CPUModel)
	case h.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", h.NProc, o.NProc)
	case h.AVX2 != o.AVX2 || h.FMA != o.FMA || h.AVX512VNNI != o.AVX512VNNI:
		return "cpu feature flags differ"
	case h.GeneratorProcs != o.GeneratorProcs || h.DaemonProcs != o.DaemonProcs:
		return "GOMAXPROCS differs"
	case h.GoVersion != o.GoVersion || h.GOARCH != o.GOARCH:
		return fmt.Sprintf("go %s/%s vs %s/%s", h.GoVersion, h.GOARCH, o.GoVersion, o.GOARCH)
	}
	return ""
}

// probeHost reads the host record. repoRoot is the checkout whose
// sources are digested.
func probeHost(repoRoot string) (hostRecord, error) {
	h := hostRecord{
		NProc:          runtime.NumCPU(),
		GoVersion:      runtime.Version(),
		GOARCH:         runtime.GOARCH,
		GeneratorProcs: runtime.GOMAXPROCS(0),
		DaemonProcs:    runtime.NumCPU(),
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		h.DaemonProcs = v
	}
	flags := map[string]bool{}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				h.CPUModel = strings.TrimSpace(val)
			case "flags":
				for _, fl := range strings.Fields(val) {
					flags[fl] = true
				}
			}
		}
		_ = f.Close()
	}
	h.AVX2, h.FMA = flags["avx2"], flags["fma"]
	h.AVX512VNNI = flags["avx512f"] && flags["avx512vl"] && flags["avx512_vnni"]
	h.Int8Path, h.F32Path = "generic", "generic"
	if runtime.GOARCH == "amd64" {
		if h.AVX512VNNI {
			h.Int8Path = "avx512-vnni-asm"
		}
		if h.FMA && flags["avx"] {
			h.F32Path = "avx-fma-asm"
		}
	}
	d, err := sourceDigest(repoRoot)
	if err != nil {
		return h, err
	}
	h.SourceDigest = d
	return h, nil
}

// sourceDigest hashes every .go, .s, go.mod and go.sum file under root
// (build directories and hidden directories skipped), in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".go"), strings.HasSuffix(name, ".s"), name == "go.mod", name == "go.sum":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		_, _ = fmt.Fprintf(h, "%s\x00", rel)
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		_ = f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// sum over all states, and steal, the time the hypervisor ran other
// guests while this one had work. Both are zero where /proc/stat is
// missing.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted
		// in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealShare is the share of the machine's CPU time stolen between two
// cpuTicks readings.
func stealShare(total0, steal0, total1, steal1 int64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}
