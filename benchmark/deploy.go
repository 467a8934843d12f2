package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process roles, the units /proc numbers are reported per.
const (
	roleCenter = "center"
	roleAgent  = "agentd"
)

const (
	appName   = "smart-media-player"
	songBytes = 2_000_000
	// bannerTimeout bounds the wait for a daemon's "serving" line.
	bannerTimeout = 20 * time.Second
)

// dirs locates the repository and the benchmark's scratch areas. All of
// them sit inside the checkout: the benchmark writes nowhere else.
type dirs struct {
	root    string // module mdagent
	bench   string // module mdagent/benchmark
	bin     string // built daemons
	run     string // store dirs of live deployments
	results string // trace files, daemon logs
}

// findDirs resolves the layout from the working directory, which is the
// benchmark directory under `go run -C benchmark .` and `go test`.
func findDirs() (dirs, error) {
	wd, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	bench := wd
	if _, err := os.Stat(filepath.Join(wd, "benchmark", "go.mod")); err == nil {
		bench = filepath.Join(wd, "benchmark")
	}
	root := filepath.Dir(bench)
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return dirs{}, fmt.Errorf("no mdagent module above %s: %w", bench, err)
	}
	if !bytes.HasPrefix(mod, []byte("module mdagent\n")) {
		return dirs{}, fmt.Errorf("%s/go.mod is not module mdagent", root)
	}
	return dirs{
		root:    root,
		bench:   bench,
		bin:     filepath.Join(bench, ".bin"),
		run:     filepath.Join(bench, ".run"),
		results: filepath.Join(bench, "results"),
	}, nil
}

// buildDaemons compiles cmd/mdagentd and cmd/mdregistry, unchanged, from
// the checkout the benchmark runs in.
func buildDaemons(d dirs) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(d.bin, 0o755); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", d.bin+string(filepath.Separator),
		"./cmd/mdagentd", "./cmd/mdregistry")
	cmd.Dir = d.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// proc is one spawned daemon with its captured output.
type proc struct {
	role, name, addr string
	cmd              *exec.Cmd
	exited           chan struct{} // closed once Wait returned

	mu    sync.Mutex
	lines []string
	wake  chan struct{} // replaced on every new line
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.mu.Lock()
		p.lines = append(p.lines, sc.Text())
		close(p.wake)
		p.wake = make(chan struct{})
		p.mu.Unlock()
	}
}

// waitLine blocks until the daemon printed a line containing substr.
func (p *proc) waitLine(substr string, timeout time.Duration) error {
	deadline := time.After(timeout)
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if strings.Contains(p.lines[seen], substr) {
				p.mu.Unlock()
				return nil
			}
		}
		wake := p.wake
		p.mu.Unlock()
		select {
		case <-wake:
		case <-p.exited:
			return fmt.Errorf("%s exited before printing %q", p.name, substr)
		case <-deadline:
			return fmt.Errorf("%s printed no %q line within %v", p.name, substr, timeout)
		}
	}
}

func (p *proc) transcript() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n") + "\n"
}

// shape says which daemons a deployment runs. Centers are lab1..labN,
// federated with each other; hosts are hostA.. in lab1, every one with
// the player skeleton installed and hostA running the player.
type shape struct {
	centers, hosts int
}

// deployment is one fresh set of daemons on loopback TCP with on-disk
// stores under a directory of its own.
type deployment struct {
	dir     string
	procs   []*proc
	centers []*proc // lab1.. in order
	hosts   []*proc // hostA.. in order
	logDir  string
	tag     string
}

func spaceName(i int) string { return fmt.Sprintf("lab%d", i+1) }
func hostName(i int) string  { return "host" + string(rune('A'+i)) }

// reservePorts binds n loopback listeners at once and releases them, so
// every daemon can be told its peers' addresses before any of them runs.
func reservePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// deploy spawns the daemons of sh with the shipped default flags and
// returns once each printed its serving banner. A port lost between
// reservation and bind fails one daemon; that is retried on fresh ports.
func deploy(d dirs, tag string, sh shape) (*deployment, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var dep *deployment
		if dep, err = deployOnce(d, tag, sh); err == nil {
			return dep, nil
		}
	}
	return nil, err
}

func deployOnce(d dirs, tag string, sh shape) (_ *deployment, err error) {
	if err := os.MkdirAll(d.run, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(d.run, tag+"-")
	if err != nil {
		return nil, err
	}
	dep := &deployment{dir: dir, logDir: filepath.Join(d.results, "logs"), tag: tag}
	defer func() {
		if err != nil {
			dep.dumpLogs()
			dep.close()
		}
	}()
	addrs, err := reservePorts(sh.centers + sh.hosts)
	if err != nil {
		return nil, err
	}
	centerAddr, hostAddr := addrs[:sh.centers], addrs[sh.centers:]

	for i := 0; i < sh.centers; i++ {
		args := []string{"-listen", centerAddr[i], "-space", spaceName(i),
			"-store", filepath.Join(dep.dir, spaceName(i)), "-store-sync", "interval"}
		for j := 0; j < sh.centers; j++ {
			if j != i {
				args = append(args, "-fed-peer", spaceName(j)+"="+centerAddr[j])
			}
		}
		p, err := dep.spawn(filepath.Join(d.bin, "mdregistry"), roleCenter, spaceName(i), centerAddr[i], args)
		if err != nil {
			return nil, err
		}
		dep.centers = append(dep.centers, p)
	}
	for _, p := range dep.centers {
		if err := p.waitLine("mdregistry: serving ", bannerTimeout); err != nil {
			return nil, err
		}
	}
	// Hosts register with lab1 while they start, so the centers come first.
	for i := 0; i < sh.hosts; i++ {
		args := []string{"-host", hostName(i), "-listen", hostAddr[i], "-registry", centerAddr[0],
			"-space", spaceName(0), "-install", appName}
		for j := 0; j < sh.hosts; j++ {
			if j != i {
				args = append(args, "-peer", hostName(j)+"="+hostAddr[j])
			}
		}
		if i == 0 {
			args = append(args, "-run", appName, "-song-bytes", fmt.Sprint(songBytes))
		}
		p, err := dep.spawn(filepath.Join(d.bin, "mdagentd"), roleAgent, hostName(i), hostAddr[i], args)
		if err != nil {
			return nil, err
		}
		dep.hosts = append(dep.hosts, p)
	}
	for _, p := range dep.hosts {
		if err := p.waitLine("]: serving on ", bannerTimeout); err != nil {
			return nil, err
		}
	}
	return dep, nil
}

// spawn starts one daemon in a process group of its own, so that close
// can kill it together with anything it might start, and asks the kernel
// to kill it if the generator dies without running close.
func (dep *deployment) spawn(bin, role, name, addr string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{role: role, name: name, addr: addr, cmd: cmd,
		exited: make(chan struct{}), wake: make(chan struct{})}
	dep.procs = append(dep.procs, p)
	live.add(dep)
	go func() {
		p.consume(out)
		_ = cmd.Wait() // killed on close: the exit status says nothing
		close(p.exited)
	}()
	return p, nil
}

// dumpLogs writes every daemon's captured output under results/logs.
func (dep *deployment) dumpLogs() {
	if err := os.MkdirAll(dep.logDir, 0o755); err != nil {
		return
	}
	for _, p := range dep.procs {
		name := fmt.Sprintf("%s-%s.log", dep.tag, p.name)
		_ = os.WriteFile(filepath.Join(dep.logDir, name), []byte(p.transcript()), 0o644)
	}
}

// close kills every daemon's process group, waits until each has ended,
// and removes the store directories.
func (dep *deployment) close() {
	for _, p := range dep.procs {
		_ = syscall.Kill(-p.pid(), syscall.SIGKILL)
	}
	for _, p := range dep.procs {
		<-p.exited
	}
	live.remove(dep)
	_ = os.RemoveAll(dep.dir)
}

// liveSet tracks running deployments so a signal or a panic can still
// tear them down.
type liveSet struct {
	mu   sync.Mutex
	deps map[*deployment]bool
}

var live = &liveSet{deps: map[*deployment]bool{}}

func (l *liveSet) add(d *deployment) {
	l.mu.Lock()
	l.deps[d] = true
	l.mu.Unlock()
}

func (l *liveSet) remove(d *deployment) {
	l.mu.Lock()
	delete(l.deps, d)
	l.mu.Unlock()
}

func (l *liveSet) closeAll(dump bool) {
	l.mu.Lock()
	deps := make([]*deployment, 0, len(l.deps))
	for d := range l.deps {
		deps = append(deps, d)
	}
	l.mu.Unlock()
	for _, d := range deps {
		if dump {
			d.dumpLogs()
		}
		d.close()
	}
}

// alive fails when any daemon of the deployment has exited.
func (dep *deployment) alive() error {
	for _, p := range dep.procs {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited during the run", p.name)
		default:
		}
	}
	return nil
}
