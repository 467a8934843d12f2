package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ: the kernel reports utime/stime to user space in
// hundredths of a second on every Linux architecture Go runs on.
const clockTick = 100

// procSample is one reading of a process's /proc counters.
type procSample struct {
	cpuMs     float64 // user+sys CPU since the process started
	writeSys  int64   // write-class system calls
	wchar     int64   // bytes passed to write-class system calls
	rssPeakKB int64   // VmHWM
}

// parseStat extracts user+sys CPU from the text of /proc/<pid>/stat. The
// command name may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseStat(text string) (cpuMs float64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want 13 or more", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return float64(utime+stime) * 1000 / clockTick, nil
}

// parseKeyed reads `key: value [unit]` lines, the format of both
// /proc/<pid>/io and /proc/<pid>/status, and returns the named values.
func parseKeyed(text string, keys ...string) (map[string]int64, error) {
	out := make(map[string]int64, len(keys))
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		for _, want := range keys {
			if k != want {
				continue
			}
			f := strings.Fields(v)
			if len(f) == 0 {
				return nil, fmt.Errorf("%s: no value", k)
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
			out[k] = n
		}
	}
	for _, want := range keys {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("no %s line", want)
		}
	}
	return out, nil
}

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpuMs, err = parseStat(string(bytes.TrimSpace(stat))); err != nil {
		return s, err
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	kv, err := parseKeyed(string(io), "syscw", "wchar")
	if err != nil {
		return s, fmt.Errorf("io: %w", err)
	}
	s.writeSys, s.wchar = kv["syscw"], kv["wchar"]
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	if kv, err = parseKeyed(string(status), "VmHWM"); err != nil {
		return s, fmt.Errorf("status: %w", err)
	}
	s.rssPeakKB = kv["VmHWM"]
	return s, nil
}

// roleBench is the load generator itself, read from /proc like the rest.
const roleBench = "bench"

// roleSample sums the counters of the processes of each role, taking the
// peak resident size as the largest of theirs.
type roleSample map[string]procSample

func sampleRoles(dep *deployment) (roleSample, error) {
	out := roleSample{}
	add := func(role string, pid int) error {
		s, err := readProc(pid)
		if err != nil {
			return fmt.Errorf("/proc/%d (%s): %w", pid, role, err)
		}
		sum := out[role]
		sum.cpuMs += s.cpuMs
		sum.writeSys += s.writeSys
		sum.wchar += s.wchar
		sum.rssPeakKB = max(sum.rssPeakKB, s.rssPeakKB)
		out[role] = sum
		return nil
	}
	if err := add(roleBench, os.Getpid()); err != nil {
		return nil, err
	}
	for _, p := range dep.procs {
		if err := add(p.role, p.pid()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// totalCPUMs is user+sys CPU of every role together.
func (r roleSample) totalCPUMs() float64 {
	var sum float64
	for _, s := range r {
		sum += s.cpuMs
	}
	return sum
}
