package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// scratchDir holds the benchmark's WAL directories, under the build output
// directory of the checkout it runs in.
const scratchDir = ".bench_build"

// host is the fingerprint printed with every result: a figure means little
// without the machine, toolchain and commit it was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	WALFS      string `json:"wal_fs"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		WALFS:      fsType(scratchDir),
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
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the VCS stamp the go tool embeds when the benchmark is built
// inside a git checkout; exported source trees have none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
