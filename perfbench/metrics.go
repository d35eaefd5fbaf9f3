package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/xmark"
)

// metricSpec names a metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricSpec struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload, and
// printed on the result line.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p95_us", "us"},
	{"heap_mb", "MB"},
	{"disk_bytes_per_xml_byte", "ratio"},
}

// diskLatency are end-to-end metrics set mainly by the host's fsync
// and read latency. They are measured with the others but only
// printed in the summary: on a shared host their spread over ten
// seeds exceeded the largest bound a declared metric may have.
var diskLatency = []metricSpec{
	{"load_docs_per_s", "1/s"},
	{"load_p50_ms", "ms"},
	{"load_p95_ms", "ms"},
	{"recovery_s", "s"},
}

// perLayer are reported by the traced run.
func perLayer() []metricSpec {
	specs := []metricSpec{
		{"xpath.parse_us", "us"},
		{"core.translate_us", "us"},
		{"sqlast.render_us", "us"},
		{"engine.plan_lookup_us", "us"},
		{"engine.plan_us", "us"},
		{"engine.exec_us", "us"},
		{"xrel.materialise_us", "us"},
		{"bench.self_us", "us"},
		{"trace.query_us", "us"},
		{"trace.untraced_query_us", "us"},
		{"trace.overhead_us", "us"},
		{"engine.plan_cache.hits", "count"},
		{"engine.plan_cache.misses", "count"},
		{"engine.plan_cache.hit_ratio", "ratio"},
		{"engine.adaptive_replans", "count"},
		{"engine.peak_mem_bytes", "bytes"},
		{"shred.load_ms", "ms"},
		{"shred.rows_per_doc", "count"},
		{"wal.bytes_per_commit", "bytes"},
		{"wal.checkpoint_ms", "ms"},
		{"wal.checkpoint_bytes", "bytes"},
		{"wal.replay_bytes", "bytes"},
		{"wal.open_ms", "ms"},
		{"shred.attach_ms", "ms"},
		{"go.allocs_per_query", "count"},
		{"go.gc_cycles_per_1k_ops", "count"},
	}
	for _, q := range xmark.Queries {
		specs = append(specs,
			metricSpec{"core.translate_us." + q.ID, "us"},
			metricSpec{"engine.exec_us." + q.ID, "us"},
			metricSpec{"engine.index_probes." + q.ID, "count"},
			metricSpec{"engine.rows_examined_per_result." + q.ID, "count"})
	}
	return specs
}

// endToEndValues computes the measured run's metrics.
func (r *run) endToEndValues() map[string]float64 {
	lat := make([]float64, len(r.queryLat))
	for i, d := range r.queryLat {
		lat[i] = us(d)
	}
	var loadS float64
	for _, ms := range r.loadMs {
		loadS += ms / 1e3
	}
	xmlBytes := float64(r.baseXML + int64(len(r.loadMs))*r.smallXML)
	return map[string]float64{
		"setup_s":                 median(r.setupS),
		"queries_per_s":           ratio(float64(len(r.queryLat)), r.windowS),
		"query_p50_us":            percentile(lat, 50),
		"query_p95_us":            percentile(lat, 95),
		"heap_mb":                 r.heapMB,
		"load_docs_per_s":         ratio(float64(len(r.loadMs)), loadS),
		"load_p50_ms":             percentile(r.loadMs, 50),
		"load_p95_ms":             percentile(r.loadMs, 95),
		"recovery_s":              median(r.recoveryS),
		"disk_bytes_per_xml_byte": ratio(float64(r.diskBytes), xmlBytes),
	}
}

// perLayerValues computes the traced run's metrics from its spans and
// counters.
func (r *run) perLayerValues() map[string]float64 {
	s := summarise(r.spans, r.windowFrom, r.windowTo)
	var traced float64
	for _, name := range querySpans {
		traced += s.selfUs[name]
	}
	untraced := ratio(float64(r.untracedNs)/1e3, float64(r.untracedN))
	v := map[string]float64{
		"xpath.parse_us":              s.selfUs[spanParse],
		"core.translate_us":           s.selfUs[spanTranslate],
		"sqlast.render_us":            s.selfUs[spanRender],
		"engine.plan_lookup_us":       s.selfUs[spanPlan],
		"engine.plan_us":              s.planMissUs,
		"engine.exec_us":              s.selfUs[spanExec],
		"xrel.materialise_us":         s.selfUs[spanMaterialise],
		"bench.self_us":               s.selfUs[spanQuery],
		"trace.query_us":              traced,
		"trace.untraced_query_us":     untraced,
		"trace.overhead_us":           traced - untraced,
		"engine.plan_cache.hits":      float64(r.hits),
		"engine.plan_cache.misses":    float64(r.misses),
		"engine.plan_cache.hit_ratio": ratio(float64(r.hits), float64(r.hits+r.misses)),
		"engine.adaptive_replans":     float64(r.replans),
		"engine.peak_mem_bytes":       float64(r.peakMem),
		"shred.load_ms":               mean(s.durMs[spanShred]),
		"shred.rows_per_doc":          meanInt(r.rowsDelta),
		"wal.bytes_per_commit":        meanInt(r.walDelta),
		"wal.checkpoint_ms":           mean(s.durMs[spanCkptWAL]),
		"wal.checkpoint_bytes":        meanInt(r.ckptBytes),
		"wal.replay_bytes":            float64(r.walAtOpen),
		"wal.open_ms":                 median(s.durMs[spanOpen]),
		"shred.attach_ms":             median(s.durMs[spanAttach]),
		"go.allocs_per_query":         ratio(float64(r.allocs), float64(r.ops)),
		"go.gc_cycles_per_1k_ops":     ratio(1000*float64(r.gcs), float64(r.ops)),
	}
	for i, q := range xmark.Queries {
		p := r.profile[i]
		v["core.translate_us."+q.ID] = p.translateUs
		v["engine.exec_us."+q.ID] = p.execUs
		v["engine.index_probes."+q.ID] = float64(p.probes)
		v["engine.rows_examined_per_result."+q.ID] = ratio(float64(p.rowsOut), math.Max(1, float64(p.results)))
	}
	return v
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns exactly the named metrics, failing on any that was not
// computed or is not a finite number.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", m.name, v)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func meanInt(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return ratio(float64(s), float64(len(xs)))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks of the
// sorted samples; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
