package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// proc is one bvqd or bvqrouter child process on a loopback port.
type proc struct {
	name string
	args []string
	url  string
	port int
	cmd  *exec.Cmd
	done chan struct{}
}

// live tracks running children so a signal can stop them.
var live = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc starts bin with args plus -addr on a fresh loopback port, its
// stderr appended to logPath.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, args: args, url: fmt.Sprintf("http://127.0.0.1:%d", port), port: port, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	live.Lock()
	live.procs[p] = true
	live.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after five seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

func stopAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// waitReady polls GET path until ok accepts the body, the process exits or
// 60 seconds pass.
func (p *proc) waitReady(path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		default:
		}
		if resp, err := hc.Get(p.url + path); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready on %s%s after 60s", p.name, p.url, path)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// timeWaitSockets counts loopback TCP sockets in TIME_WAIT with either end
// on one of ports, from /proc/net/tcp and /proc/net/tcp6.
func timeWaitSockets(ports []int) int {
	want := map[int]bool{}
	for _, p := range ports {
		want[p] = true
	}
	n := 0
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) < 4 || f[3] != "06" {
				continue
			}
			for _, addr := range f[1:3] {
				if i := strings.LastIndexByte(addr, ':'); i >= 0 {
					if port, err := strconv.ParseInt(addr[i+1:], 16, 32); err == nil && want[int(port)] {
						n++
						break
					}
				}
			}
		}
	}
	return n
}

// cpuTimes reads the host's steal and total CPU time, in clock ticks, from
// the first line of /proc/stat; both are 0 when it cannot be read.
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// scrape is one reading of a bvqd's /stats and /metrics.
type scrape struct {
	stats   server.StatsResponse
	samples map[string]float64 // "name{k=v,...}" → value
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parsing %s/metrics: %w", url, err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[sampleKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out, nil
}

func sampleKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k + "=" + labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func takeScrape(url string) (scrape, error) {
	var s scrape
	if err := getJSON(url+"/stats", &s.stats); err != nil {
		return s, err
	}
	var err error
	s.samples, err = scrapeMetrics(url)
	return s, err
}
