package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// daemonClients closed-loop clients (one per CPU of the reference host)
	// share each pass's requests.
	daemonClients = 2
	// daemonSweeps is how many sweep grids a cycle requests.
	daemonSweeps = 4
)

var (
	daemonOps      = []string{"estimate", "exec", "correct", "study"}
	daemonNetworks = []string{"electrical", "optical", "ideal", "hybrid"}
	daemonKernels  = []string{"fft", "lu", "stencil", "sort", "reduce"}
)

// request is one HTTP call of the daemon mix.
type request struct {
	path string
	body []byte
	op   string
	// repeatOf indexes the client's earlier request this one repeats, or -1
	// for a first occurrence.
	repeatOf int
}

// freshSeeds offsets the config seeds of the quiet misses from those of the
// mix, so that each is a request the daemon has not seen.
const freshSeeds = 50000

// firstOccurrences is a cycle's distinct requests: every simulate op on
// every fabric and kernel once, plus daemonSweeps sweep grids, in seeded
// order, each with its own config seed (offset by freshSeeds when fresh).
// A run's cycle of passes covers the whole set, so every seed weighs the
// ops, fabrics and kernels alike and the seed changes the inputs (jitter,
// order, grids), not the mix.
func firstOccurrences(seed uint64, fresh bool) []request {
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	var out []request
	base := seed * 100000
	if fresh {
		base += freshSeeds
	}
	cfgSeed := func() uint64 { return base + uint64(len(out)) }
	for _, op := range daemonOps {
		for _, network := range daemonNetworks {
			for _, kernel := range daemonKernels {
				body, _ := json.Marshal(map[string]any{
					"op":      op,
					"network": network,
					"config": map[string]any{
						"seed":     cfgSeed(),
						"system":   map[string]any{"cores": 16},
						"workload": map[string]any{"kernel": kernel, "jitter": studyJitter},
					},
				})
				out = append(out, request{path: "/v1/simulate", body: body, op: op, repeatOf: -1})
			}
		}
	}
	pairs := [][]string{{"electrical", "optical"}, {"optical", "hybrid"}, {"electrical", "hybrid"}}
	for i := 0; i < daemonSweeps; i++ {
		// A small grid: two fabrics × two WDM degrees at 16 cores.
		body, _ := json.Marshal(map[string]any{
			"name": fmt.Sprintf("mix-%d", cfgSeed()), "networks": pairs[rng.IntN(len(pairs))], "cores": []int{16},
			"wavelengths": []int{4, 16}, "faults": []string{"off"},
			"kernels": []string{daemonKernels[rng.IntN(len(daemonKernels))]}, "quick": true, "seed": cfgSeed(),
		})
		out = append(out, request{path: "/v1/sweeps", body: body, op: "sweep", repeatOf: -1})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixSequences builds the client sequences of pass part (of parts) of a
// cycle: its share of the first occurrences, dealt round-robin to the
// clients, each client interleaving as many repeats of its own earlier
// requests. A repeat's original has been answered, so repeats are served
// from settled cache entries.
func mixSequences(seed uint64, part, parts int) [][]request {
	share := passShare(firstOccurrences(seed, false), part, parts)
	rng := rand.New(rand.NewPCG(seed, uint64(part)))
	seqs := make([][]request, daemonClients)
	for c := range seqs {
		var own []request
		for i := c; i < len(share); i += daemonClients {
			own = append(own, share[i])
		}
		var seq []request
		var origins []int
		next, repeats := 0, 0
		for next < len(own) || repeats < len(own) {
			if next < len(own) && (repeats >= next || rng.IntN(2) == 0) {
				origins = append(origins, len(seq))
				seq = append(seq, own[next])
				next++
				continue
			}
			o := origins[rng.IntN(len(origins))]
			rq := seq[o]
			rq.repeatOf = o
			seq = append(seq, rq)
			repeats++
		}
		seqs[c] = seq
	}
	return seqs
}

// passShare is pass part's share (of parts) of a cycle's first occurrences.
func passShare(firsts []request, part, parts int) []request {
	return firsts[part*len(firsts)/parts : (part+1)*len(firsts)/parts]
}

// reply is the part of a simulate or sweep envelope the benchmark reads.
type reply struct {
	Status     string          `json:"status"`
	ElapsedMS  int64           `json:"elapsed_ms"`
	Table      json.RawMessage `json:"table"`
	UniqueJobs int             `json:"unique_jobs"`
	Pruned     int             `json:"pruned"`
	Simulated  int             `json:"simulated"`
	Front      json.RawMessage `json:"front"`
	Summary    json.RawMessage `json:"summary"`
}

// output is the bytes a repeat must reproduce.
func (r reply) output() []byte {
	return bytes.Join([][]byte{r.Table, r.Front, r.Summary}, []byte{'\n'})
}

// sample is one completed request as the client saw it.
type sample struct {
	op       string
	repeat   bool
	start    time.Time
	latency  time.Duration
	serverMS int64
}

// daemonSamples collects the client-side observations of a whole run.
type daemonSamples struct {
	requests int
	passTime time.Duration
	all      []sample
}

// runDaemonMix runs daemon lifetimes until the measurement time is used up,
// completing at least one cycle of sub-seeds. Each pass starts a fresh
// daemon (cold cache), so set-up is measured once per pass.
func runDaemonMix(o options, subs int, out string, origin time.Time) (*runResult, error) {
	bin := filepath.Join(out, "bin", "onocsimd")
	r := &runResult{subs: subs, daemon: &daemonSamples{}}
	err := r.measure(o.seconds, func(int) (float64, error) {
		d, setup, err := startDaemon(bin)
		if err != nil {
			return 0, err
		}
		return setup.Seconds(), d.stop()
	}, func(i int) (*passResult, error) {
		return daemonPass(bin, o.seed, i%subs, subs, i, o.trace == 1, origin, r)
	})
	return r, err
}

// daemonProc is a running onocsimd and an HTTP client for it.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	tr     *http.Transport
	logs   func() []string
}

// startDaemon starts onocsimd on an ephemeral port and returns once
// /healthz answers, with the time that took.
func startDaemon(bin string) (*daemonProc, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// Should the benchmark be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr, logs, err := waitListening(stderr)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, 0, fmt.Errorf("onocsimd: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: daemonClients}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, tr: tr,
		client: &http.Client{Transport: tr, Timeout: 120 * time.Second}, logs: logs}
	if err := waitHealthy(d.client, d.base); err != nil {
		_ = d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	d.tr.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("onocsimd exit: %w (log: %s)", err, strings.Join(d.logs(), " | "))
	}
	return nil
}

// daemonPass starts onocsimd, runs the request mix with closed-loop
// clients, reads /v1/stats and stops the daemon.
func daemonPass(bin string, seed uint64, part, parts, pass int, traced bool, origin time.Time, r *runResult) (*passResult, error) {
	p := newPass(subSeed(seed, part))
	d, setup, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	p.SetupS = setup.Seconds()
	client, base := d.client, d.base

	seqs := mixSequences(seed, part, parts)
	first := len(r.daemon.all)
	var mu sync.Mutex
	var wg sync.WaitGroup
	outputs := make([][][]byte, len(seqs))
	begin := time.Now()
	for c := range seqs {
		outputs[c] = make([][]byte, len(seqs[c]))
		wg.Add(1)
		go func(c int, seq []request, outputs [][]byte) {
			defer wg.Done()
			for i, rq := range seq {
				s, rep, err := send(client, base, rq)
				check := ""
				if err == nil {
					outputs[i] = rep.output()
					if rq.repeatOf >= 0 && !bytes.Equal(outputs[i], outputs[rq.repeatOf]) {
						check = fmt.Sprintf("repeated %s request returned different output", rq.op)
					}
				}
				mu.Lock()
				p.Tally.op(err, check)
				if err == nil {
					r.daemon.all = append(r.daemon.all, s)
					if rq.repeatOf < 0 {
						p.Phases[fmt.Sprintf("miss/%d.%d", c, i)] = s.latency.Seconds()
					}
					if rq.op == "sweep" {
						p.count("sweep.unique_jobs", int64(rep.UniqueJobs))
						p.count("sweep.pruned", int64(rep.Pruned))
						p.count("sweep.simulated", int64(rep.Simulated))
						p.Layers["sweep.elapsed_ms"] += float64(rep.ElapsedMS)
						p.Layers["sweep.requests"]++
					}
				}
				mu.Unlock()
			}
		}(c, seqs[c], outputs[c])
	}
	wg.Wait()
	elapsed := time.Since(begin)
	p.Phases["pass"] = elapsed.Seconds()
	r.daemon.passTime += elapsed
	samples := r.daemon.all[first:]
	r.daemon.requests += len(samples)

	// Quiet hits: with the mix done, one client sends every first occurrence
	// again, so each is a cache hit timed without a concurrent simulation.
	for c, seq := range seqs {
		for i, rq := range seq {
			if rq.repeatOf >= 0 {
				continue
			}
			s, rep, err := send(client, base, rq)
			check := ""
			if err == nil && !bytes.Equal(rep.output(), outputs[c][i]) {
				check = fmt.Sprintf("repeated %s request returned different output", rq.op)
			}
			p.Tally.op(err, check)
			if err == nil {
				p.Phases[fmt.Sprintf("hit/%d.%d", c, i)] = s.latency.Seconds()
			}
		}
	}

	// Quiet misses: one client sends the pass's share of first occurrences
	// with fresh config seeds, so each is simulated with no other request
	// in flight. Contention in the mix makes its first-occurrence latencies
	// depend on what the other client happens to run.
	for i, rq := range passShare(firstOccurrences(seed, true), part, parts) {
		s, _, err := send(client, base, rq)
		p.Tally.op(err)
		if err == nil {
			p.Phases[fmt.Sprintf("quiet/%d", i)] = s.latency.Seconds()
		}
	}

	var st struct {
		Cache struct {
			Misses, Hits, Waits uint64
		} `json:"cache"`
		Scheduler struct {
			Admitted  uint64 `json:"admitted"`
			Cancelled uint64 `json:"cancelled"`
		} `json:"scheduler"`
	}
	err = getJSON(client, base+"/v1/stats", &st)
	p.Tally.op(err)
	p.count("simcache.misses", int64(st.Cache.Misses))
	p.Layers["simcache.hits"] = float64(st.Cache.Hits)
	p.Layers["simcache.waits"] = float64(st.Cache.Waits)
	p.Layers["sched.admitted"] = float64(st.Scheduler.Admitted)
	p.Layers["sched.cancelled"] = float64(st.Scheduler.Cancelled)

	if err := d.stop(); err != nil {
		return nil, err
	}
	p.RSSMB = peakRSSMB(d.cmd.ProcessState)
	if traced {
		r.addRequestSpans(pass, samples, origin)
	}
	return p, nil
}

// waitListening reads the daemon's stderr until it names its address, then
// keeps draining it in the background; logs returns the last lines read.
func waitListening(stderr io.Reader) (string, func() []string, error) {
	var mu sync.Mutex
	var last []string
	keep := func(line string) {
		mu.Lock()
		defer mu.Unlock()
		if last = append(last, line); len(last) > 5 {
			last = last[1:]
		}
	}
	logs := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), last...)
	}
	sc := bufio.NewScanner(stderr)
	const marker = "listening on "
	for sc.Scan() {
		line := sc.Text()
		keep(line)
		if i := strings.Index(line, marker); i >= 0 {
			go func() {
				for sc.Scan() {
					keep(sc.Text())
				}
			}()
			return strings.TrimSpace(line[i+len(marker):]), logs, nil
		}
	}
	return "", logs, fmt.Errorf("exited before listening: %s", strings.Join(logs(), " | "))
}

func waitHealthy(client *http.Client, base string) error {
	for i := 0; i < 2000; i++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("onocsimd: /healthz never answered")
}

// send posts one request and decodes its envelope. A non-200 answer or a
// status other than "ok" is an error.
func send(client *http.Client, base string, rq request) (sample, reply, error) {
	s := sample{op: rq.op, repeat: rq.repeatOf >= 0, start: time.Now()}
	resp, err := client.Post(base+rq.path, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return s, reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(s.start)
	if err != nil {
		return s, reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, reply{}, fmt.Errorf("%s %s: HTTP %d: %s", rq.path, rq.op, resp.StatusCode, bytes.TrimSpace(data))
	}
	var rep reply
	if err := json.Unmarshal(data, &rep); err != nil {
		return s, reply{}, fmt.Errorf("%s %s: %w", rq.path, rq.op, err)
	}
	if rep.Status != "ok" {
		return s, rep, fmt.Errorf("%s %s: status %q", rq.path, rq.op, rep.Status)
	}
	s.serverMS = rep.ElapsedMS
	return s, rep, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// addRequestSpans turns the pass's newest samples into spans: one per
// request on the client ("service.request"), with a child covering the
// server's reported elapsed time ("service.server"). The server reports a
// duration, not a start, so the child is placed to end when the reply
// arrived; the parent's self time is the client-visible overhead.
func (r *runResult) addRequestSpans(pass int, samples []sample, origin time.Time) {
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
	for i, s := range samples {
		id := pass*1000 + i
		end := us(s.start.Add(s.latency))
		parent := len(r.spans)
		r.spans = append(r.spans, Span{Name: "service.request", ID: id, Parent: -1, Start: us(s.start), End: end})
		server := min(float64(s.serverMS)*1e3, end-us(s.start))
		r.spans = append(r.spans, Span{Name: "service.server", ID: id, Parent: parent, Start: end - server, End: end})
	}
}
