package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance describes what was measured and where: the source (git
// commit and dirty flag when the checkout is a git work tree, and always a
// hash of the Go sources), the host and toolchain, and the run's inputs.
func provenance(rc runConfig) map[string]any {
	host, _ := os.Hostname()
	p := map[string]any{
		"workload":    rc.workload,
		"seed":        rc.seed,
		"run_seconds": rc.seconds.Seconds(),
		"traced":      rc.trace,
		"host":        host,
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"finished":    time.Now().UTC().Format(time.RFC3339),
		"commit":      "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p["dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if sum, err := sourceHash("."); err == nil {
		p["source_sha256"] = sum
	}
	return p
}

// sourceHash hashes the path and content of every .go, go.mod and .csv
// file under root, skipping dot directories, in walk order.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".csv" && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// rssPeakMiB returns the process's peak resident set size in MiB.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
