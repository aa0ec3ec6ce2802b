package serve

import (
	"net/http"

	"repro/internal/store"
)

// This file is the HTTP face of the store's query/management plane:
// list/filter the verdict warehouse, aggregate a campaign's pass
// rate, diff two campaigns, and inspect or compact the storage
// engine. All of it reads through store.Interface, so the answers are
// identical under either engine and match cccheck -mode query run
// offline against the same cache directory.

// handleListVerdicts is GET /v1/verdicts?filter=k=v,…: every stored
// verdict passing the filter, in key order (deterministic for a given
// warehouse content).
func (s *Server) handleListVerdicts(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	f, err := store.ParseFilter(r.URL.Query().Get("filter"))
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	rows, err := store.List(s.cfg.Store, f)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "listing verdicts: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":    len(rows),
		"verdicts": rows,
	})
}

// handleCampaignSummary is GET /v1/campaigns/{id}/summary: the query
// plane's pass-rate aggregate over the campaign's cells, resolved
// from memory or the persisted manifest.
func (s *Server) handleCampaignSummary(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	id := r.PathValue("id")
	keys, ok := s.campaignKeys(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	sum := store.Summarize(s.cfg.Store, keys)
	sum.Campaign = id
	writeJSON(w, http.StatusOK, sum)
}

// handleDiffCampaigns is GET /v1/campaigns/diff?a=…&b=…: cell-by-cell
// verdict comparison of two campaigns in expansion order.
func (s *Server) handleDiffCampaigns(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		s.badRequest(w, "diff needs both ?a= and ?b= campaign ids")
		return
	}
	keysA, ok := s.campaignKeys(a)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", a)
		return
	}
	keysB, ok := s.campaignKeys(b)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", b)
		return
	}
	writeJSON(w, http.StatusOK, store.DiffCells(s.cfg.Store, a, b, keysA, keysB))
}

// handleStoreStats is GET /v1/store/stats: the engine's footprint
// plus the persisted-campaign count.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{
		"store":     s.cfg.Store.Stats(),
		"campaigns": len(s.cfg.Store.Campaigns()),
	})
}

// handleStoreCompact is POST /v1/store/compact: force a compaction
// and report what it did. A no-op report on the dir engine; on the
// log engine Get bytes are identical before and after (the CI smoke
// cmp-checks exactly that).
func (s *Server) handleStoreCompact(w http.ResponseWriter, r *http.Request) {
	stats, err := s.cfg.Store.Compact()
	if err != nil {
		s.breaker.record(err)
		writeError(w, http.StatusInternalServerError, "compaction failed: %v", err)
		return
	}
	s.compactions.Add(1)
	writeJSON(w, http.StatusOK, stats)
}
