package main

import (
	"bufio"
	"os"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
)

// envStamp says where and on what a run's numbers were taken.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	W          int    `json:"w"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func stamp(b *bench) envStamp {
	return envStamp{
		GoVersion:  stdruntime.Version(),
		GOOS:       stdruntime.GOOS,
		GOARCH:     stdruntime.GOARCH,
		CPU:        cpuModel(),
		NProc:      stdruntime.NumCPU(),
		W:          b.w,
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		Seed:       b.opt.seed,
		Commit:     commit(),
	}
}

// cpuModel reads the model name Linux reports; elsewhere it is unknown.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the go tool stamped into the binary; a checkout
// that is not a git repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
