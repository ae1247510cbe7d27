package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is the provenance every output record carries: enough to
// tell whether two files may be compared at all.
type environment struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	DataDir     string `json:"data_dir"`
	DataDirFS   string `json:"data_dir_fs"`
	FlushPolicy string `json:"flush_policy"`
}

func describeEnvironment(dataRoot string) environment {
	return environment{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		DataDir:     dataRoot,
		DataDirFS:   filesystemOf(dataRoot),
		FlushPolicy: flushPolicy,
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// the driver's checkout is not a repository, and then it is "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if b, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(b))
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// filesystemOf says whether dir is memory-backed: durable workloads'
// write latencies mean something different there.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic, ramfsMagic = 0x01021994, 0x858458f6
	switch uint32(st.Type) {
	case tmpfsMagic, ramfsMagic:
		return "tmpfs"
	}
	return "disk"
}
