package service

import (
	"fmt"
	"net/http"
	"reflect"
	"strconv"

	"xbarsec/internal/experiment"
)

// metricSeries is one /v2/metrics series. stat names the api.Stats field
// it reports; a series without one derives its value from the snapshots
// (hit ratios, the process-wide victim store).
type metricSeries struct {
	name, typ, help string
	stat            string
	derive          func(st *Stats, vs *experiment.VictimStoreStats) float64
}

// metricsTable is the scrape surface in its fixed order: every numeric
// api.Stats field has a row (TestMetricsCoverStats), and new rows go at
// the end so existing series keep their place.
var metricsTable = []metricSeries{
	// Artifact cache: the in-memory singleflight tier.
	{name: "xbarsec_artifact_cache_hits_total", typ: "counter", help: "Artifact cache hits.", stat: "CacheHits"},
	{name: "xbarsec_artifact_cache_misses_total", typ: "counter", help: "Artifact cache misses (computations).", stat: "CacheMisses"},
	{name: "xbarsec_artifact_cache_hit_ratio", typ: "gauge", help: "Hits over lookups, 0 before the first lookup.",
		derive: func(st *Stats, _ *experiment.VictimStoreStats) float64 { return hitRatio(st.CacheHits, st.CacheMisses) }},
	{name: "xbarsec_artifact_cache_entries", typ: "gauge", help: "Artifacts resident in memory.", stat: "CachedArtifacts"},
	{name: "xbarsec_artifact_cache_bytes", typ: "gauge", help: "Approximate resident bytes of cached artifacts.", stat: "CachedArtifactBytes"},

	// Victim store: process-wide trained-victim memoization.
	{name: "xbarsec_victim_store_hits_total", typ: "counter", help: "Victim store hits (trainings avoided).",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return float64(vs.Hits) }},
	{name: "xbarsec_victim_store_misses_total", typ: "counter", help: "Victim store misses.",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return float64(vs.Misses) }},
	{name: "xbarsec_victim_store_hit_ratio", typ: "gauge", help: "Hits over lookups, 0 before the first lookup.",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return hitRatio(vs.Hits, vs.Misses) }},
	{name: "xbarsec_victim_store_trainings_total", typ: "counter", help: "Victim trainings performed.",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return float64(vs.Trainings) }},
	{name: "xbarsec_victim_store_victims", typ: "gauge", help: "Trained victims resident in memory.",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return float64(vs.Cached) }},
	{name: "xbarsec_victim_store_bytes", typ: "gauge", help: "Approximate resident bytes of stored victims.",
		derive: func(_ *Stats, vs *experiment.VictimStoreStats) float64 { return float64(vs.Bytes) }},

	// Spill store: the on-disk artifact tier (zero when memory-only).
	{name: "xbarsec_spill_artifacts", typ: "gauge", help: "Artifacts on disk.", stat: "SpilledArtifacts"},
	{name: "xbarsec_spill_bytes", typ: "gauge", help: "Payload bytes on disk.", stat: "SpilledArtifactBytes"},
	{name: "xbarsec_spill_hits_total", typ: "counter", help: "Artifacts served from disk.", stat: "SpillHits"},
	{name: "xbarsec_provenance_records", typ: "gauge", help: "Provenance records on disk.", stat: "ProvenanceRecords"},

	// Serving.
	{name: "xbarsec_sessions", typ: "gauge", help: "Open attacker sessions.", stat: "Sessions"},
	{name: "xbarsec_batched_queries_total", typ: "counter", help: "Oracle queries served through coalescers.", stat: "BatchedQueries"},
	{name: "xbarsec_batch_flushes_total", typ: "counter", help: "Coalescer batch flushes.", stat: "BatchFlushes"},
	{name: "xbarsec_campaigns_total", typ: "counter", help: "Campaign jobs served.", stat: "Campaigns"},
	{name: "xbarsec_failed_jobs_total", typ: "counter", help: "Experiment jobs that failed.", stat: "FailedJobs"},

	// Cluster (zero on a single-node server).
	{name: "xbarsec_cluster_redirects_total", typ: "counter", help: "Requests redirected to their owning node.", stat: "RedirectsIssued"},
	{name: "xbarsec_cluster_peer_fetches_total", typ: "counter", help: "Artifact fetch attempts against peers.", stat: "PeerFetches"},
	{name: "xbarsec_cluster_peer_fetch_verified_total", typ: "counter", help: "Peer artifacts accepted after provenance verification.", stat: "PeerFetchVerified"},
	{name: "xbarsec_cluster_peer_fetch_rejected_total", typ: "counter", help: "Peer artifacts rejected by provenance verification.", stat: "PeerFetchRejected"},

	// Sessions, jobs and coalescer high-water marks.
	{name: "xbarsec_reaped_sessions_total", typ: "counter", help: "Sessions evicted by the idle-TTL janitor.", stat: "ReapedSessions"},
	{name: "xbarsec_experiment_jobs", typ: "gauge", help: "Experiment jobs tracked (running or finished).", stat: "ExperimentJobs"},
	{name: "xbarsec_replayed_jobs", typ: "gauge", help: "Jobs restored from the job journal at startup.", stat: "ReplayedJobs"},
	{name: "xbarsec_max_batch", typ: "gauge", help: "Largest single coalescer flush.", stat: "MaxBatch"},
	{name: "xbarsec_queue_depth_peak", typ: "gauge", help: "Deepest any coalescer queue has been at submit time.", stat: "QueueDepthPeak"},
}

// handleMetrics serves GET /v2/metrics: the service counters in the
// Prometheus text exposition format, for scraping a deployment that
// GET /v2/stats (JSON, human-shaped) does not fit. The series are
// metricsTable's, in its order — two scrapes of an idle server are
// byte-equal — and every value is a plain float gauge or monotone
// counter; no labels, no timestamps. Write errors are ignored: the
// scraper hung up, nothing to recover.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	vs := experiment.StoreStats()
	fields := reflect.ValueOf(st)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, m := range metricsTable {
		var v float64
		if m.derive != nil {
			v = m.derive(&st, &vs)
		} else {
			v = float64(fields.FieldByName(m.stat).Int())
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			m.name, m.help, m.name, m.typ, m.name, strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// hitRatio is hits/(hits+misses), 0 before the first lookup.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
