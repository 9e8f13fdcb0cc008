package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// Stats is the fleet's GET /v1/stats payload: the single-node Stats shape
// with fleet-wide values (so the Go SDK's Stats() decodes it unchanged
// when pointed at a router), plus the per-node breakdown. Counters sum
// across nodes; the cache hit rate is recomputed from the summed hits and
// misses; latency quantiles take the per-node maximum (the conservative
// fleet answer: no node is slower than what is reported); uptime is the
// router's own.
type Stats struct {
	engine.Stats
	FleetMembers int         `json:"fleet_members"`
	FleetHealthy int         `json:"fleet_healthy"`
	Nodes        []NodeStats `json:"nodes"`
}

// NodeStats is one member's contribution to the fleet Stats.
type NodeStats struct {
	Name  string        `json:"name"`
	URL   string        `json:"url"`
	Up    bool          `json:"up"`
	Error string        `json:"error,omitempty"`
	Stats *engine.Stats `json:"stats,omitempty"`
}

// Stats fans GET /v1/stats out to every member and aggregates.
func (r *Router) Stats(ctx context.Context) Stats {
	r.mu.Lock()
	members := append([]*member(nil), r.members...)
	r.mu.Unlock()

	nodes := make([]NodeStats, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[i] = NodeStats{Name: m.name, URL: m.url}
			st, err := r.fetchStats(ctx, m)
			if err != nil {
				nodes[i].Error = err.Error()
				return
			}
			nodes[i].Up = true
			nodes[i].Stats = st
		}()
	}
	wg.Wait()

	agg := Stats{FleetMembers: len(members), Nodes: nodes}
	agg.UptimeSeconds = time.Since(r.start).Seconds()
	maxf := func(dst *float64, v float64) {
		if v > *dst {
			*dst = v
		}
	}
	for _, n := range nodes {
		if n.Stats == nil {
			continue
		}
		agg.FleetHealthy++
		st := n.Stats
		agg.Workers += st.Workers
		agg.WorkerBudget += st.WorkerBudget
		agg.QueueDepth += st.QueueDepth
		agg.QueueCap += st.QueueCap
		agg.Running += st.Running
		agg.JobsDone += st.JobsDone
		agg.JobsFailed += st.JobsFailed
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.CacheEntries += st.CacheEntries
		agg.TotalIterations += st.TotalIterations
		agg.SolvesCSR += st.SolvesCSR
		agg.SolvesDIA += st.SolvesDIA
		agg.SolvesDecomposed += st.SolvesDecomposed
		agg.TilesExecuted += st.TilesExecuted
		agg.PlanFeedback += st.PlanFeedback
		agg.StreamSubscribers += st.StreamSubscribers
		agg.ByRefSolves += st.ByRefSolves
		agg.ByRefMisses += st.ByRefMisses
		maxf(&agg.LatencyP50, st.LatencyP50)
		maxf(&agg.LatencyP99, st.LatencyP99)
	}
	if total := agg.CacheHits + agg.CacheMisses; total > 0 {
		agg.CacheHitRate = float64(agg.CacheHits) / float64(total)
	}
	return agg
}

// fetchStats retrieves one member's /v1/stats under the probe timeout.
func (r *Router) fetchStats(ctx context.Context, m *member) (*engine.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, r.probeTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats returned status %d", resp.StatusCode)
	}
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats(req.Context()))
}

// handleMetrics serves the fleet exposition: the router's own repro_fleet_*
// registry followed by every member's /metrics relabeled with a
// node="<name>" label, merged so each metric family's HELP/TYPE header
// appears exactly once across the fleet.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	members := append([]*member(nil), r.members...)
	r.mu.Unlock()

	texts := make([]string, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts[i], _ = r.fetchMetrics(req.Context(), m)
		}()
	}
	wg.Wait()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.reg.WriteProm(w)

	merged := newExpositionMerge()
	for i, m := range members {
		if texts[i] != "" {
			merged.addNode(m.name, texts[i])
		}
	}
	merged.write(w)
}

// fetchMetrics retrieves one member's raw /metrics text.
func (r *Router) fetchMetrics(ctx context.Context, m *member) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, r.probeTO)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics returned status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return string(b), err
}

// expositionMerge regroups several nodes' Prometheus text expositions into
// one: sample lines gain a node label, and the HELP/TYPE header of each
// family (shared by every node — they all run the same engine) is emitted
// once.
type expositionMerge struct {
	order   []string            // family first-seen order
	headers map[string][]string // family → HELP/TYPE lines
	samples map[string][]string // family → relabeled sample lines
}

func newExpositionMerge() *expositionMerge {
	return &expositionMerge{
		headers: make(map[string][]string),
		samples: make(map[string][]string),
	}
}

// addNode folds one node's exposition text in. Samples belong to the most
// recently declared family, which is how the text format orders lines; a
// sample arriving before any header (malformed, but harmless) is grouped
// under its own metric name.
func (em *expositionMerge) addNode(node, text string) {
	current := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE "):
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			name := fields[2]
			if name != current {
				current = name
				if _, seen := em.headers[name]; !seen {
					em.headers[name] = nil
					em.order = append(em.order, name)
				}
			}
			if len(em.headers[current]) < 2 && !contains(em.headers[current], line) {
				em.headers[current] = append(em.headers[current], line)
			}
		case strings.HasPrefix(line, "#"):
		default:
			fam := current
			if fam == "" {
				fam = sampleName(line)
				if _, seen := em.headers[fam]; !seen {
					em.headers[fam] = nil
					em.order = append(em.order, fam)
				}
			}
			em.samples[fam] = append(em.samples[fam], relabelSample(line, node))
		}
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// sampleName extracts the metric name from a sample line.
func sampleName(line string) string {
	if i := strings.IndexAny(line, "{ "); i > 0 {
		return line[:i]
	}
	return line
}

// relabelSample injects node="<node>" as the first label of a sample line,
// handling both labeled (`name{a="b"} 1`) and bare (`name 1`) forms —
// including histogram _bucket/_sum/_count lines, whose labels sit on the
// suffixed name.
func relabelSample(line, node string) string {
	nodeLabel := fmt.Sprintf("node=%q", node)
	if i := strings.IndexAny(line, "{ "); i > 0 {
		if line[i] == '{' {
			if strings.HasPrefix(line[i:], "{}") {
				return line[:i] + "{" + nodeLabel + "}" + line[i+2:]
			}
			return line[:i] + "{" + nodeLabel + "," + line[i+1:]
		}
		return line[:i] + "{" + nodeLabel + "}" + line[i:]
	}
	return line
}

// write renders the merged exposition, families sorted by name for a
// stable output.
func (em *expositionMerge) write(w io.Writer) {
	names := append([]string(nil), em.order...)
	sort.Strings(names)
	for _, name := range names {
		for _, h := range em.headers[name] {
			fmt.Fprintln(w, h)
		}
		for _, s := range em.samples[name] {
			fmt.Fprintln(w, s)
		}
	}
}
