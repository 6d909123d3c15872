package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// usage is a snapshot of the process-wide counters the per-agreement cost
// metrics are deltas of. All n parties live in this process, so the deltas
// are the cost of the whole cluster.
type usage struct {
	cpu     time.Duration // user + system
	alloc   uint64        // runtime.MemStats.TotalAlloc
	mallocs uint64
	gcPause time.Duration
}

// readUsage stops the world for runtime.ReadMemStats; call it only at the
// edges of a measurement window, never inside one.
func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.alloc, u.mallocs, u.gcPause = ms.TotalAlloc, ms.Mallocs, time.Duration(ms.PauseTotalNs)
	return u
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc, mallocs: u.mallocs - v.mallocs, gcPause: u.gcPause - v.gcPause}
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss, KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fingerprint identifies the host a result was measured on, so that numbers
// from different machines are never compared by accident.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OutDir     string `json:"out_dir"` // where the checkpoint.* probes meet a real disk
	OutDirFS   string `json:"out_dir_fs"`
}

func hostFingerprint(outDir string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		OutDir:     outDir,
		OutDirFS:   fsName(outDir),
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = string(bytes.TrimSpace(raw))
	}
	return fp
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
