package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the machine a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown" where
// there is none.
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

// kernel reads the kernel release from /proc; "unknown" where it is missing.
func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
