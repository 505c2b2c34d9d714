// Package peernet simulates the paper's deployment model — "disseminate the
// structural information of the graph to its vertices and store it locally"
// — with exact communication accounting. Every vertex is a peer holding
// only its own label; a query coordinator fetches the labels it needs and
// runs the decoder. The package measures what the paper's schemes actually
// trade: the 2-label schemes move two potentially large labels per query,
// while the 1-query scheme moves three tiny ones (experiment E16).
package peernet

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/schemes/onequery"
)

// ErrUnknownPeer is returned when a label is requested for a vertex that
// does not exist.
var ErrUnknownPeer = errors.New("peernet: unknown peer")

// requestBytes models the size of a label request (vertex id + framing).
const requestBytes = 8

// responseOverheadBytes models per-response framing.
const responseOverheadBytes = 8

// Stats counts traffic through the network.
type Stats struct {
	Messages int64 // requests + responses
	Bytes    int64 // total bytes on the wire
	Fetches  int64 // label fetches (request/response pairs)
}

// Network is a fleet of peers, each holding one label. Fetch and the stats
// accessors are safe for concurrent use: coordinators answering a query
// stream from many goroutines share one network, so the traffic counters are
// atomics.
type Network struct {
	labels  []bitstr.String
	bytes   atomic.Int64
	fetches atomic.Int64
}

// New builds a network from per-vertex labels (peer v holds labels[v]).
func New(labels []bitstr.String) *Network {
	return &Network{labels: labels}
}

// N returns the number of peers.
func (n *Network) N() int { return len(n.labels) }

// Fetch retrieves peer v's label, charging one request/response pair.
// Safe for concurrent callers.
func (n *Network) Fetch(v int) (bitstr.String, error) {
	if v < 0 || v >= len(n.labels) {
		return bitstr.String{}, fmt.Errorf("%w: %d of %d", ErrUnknownPeer, v, len(n.labels))
	}
	l := n.labels[v]
	n.bytes.Add(requestBytes + responseOverheadBytes + int64(l.SizeBytes()))
	n.fetches.Add(1)
	return l, nil
}

// Stats returns the accumulated traffic counters. Each counter is read
// atomically; a snapshot taken while fetches are in flight is consistent per
// counter, not across counters.
func (n *Network) Stats() Stats {
	f := n.fetches.Load()
	return Stats{Messages: 2 * f, Bytes: n.bytes.Load(), Fetches: f}
}

// ResetStats zeroes the traffic counters.
func (n *Network) ResetStats() {
	n.bytes.Store(0)
	n.fetches.Store(0)
}

// TwoLabelService answers adjacency queries by fetching both endpoint
// labels and running a standard two-label decoder.
type TwoLabelService struct {
	Net *Network
	Dec core.AdjacencyDecoder
}

// Adjacent resolves the query over the network.
func (s *TwoLabelService) Adjacent(u, v int) (bool, error) {
	lu, err := s.Net.Fetch(u)
	if err != nil {
		return false, err
	}
	lv, err := s.Net.Fetch(v)
	if err != nil {
		return false, err
	}
	return s.Dec.Adjacent(lu, lv)
}

// OneQueryService answers adjacency queries with the Section 6 protocol:
// fetch both endpoint labels, then let the decoder fetch the single extra
// label it needs.
type OneQueryService struct {
	Net *Network
	Dec *onequery.Decoder
}

// Adjacent resolves the query over the network (at most 3 fetches).
func (s *OneQueryService) Adjacent(u, v int) (bool, error) {
	lu, err := s.Net.Fetch(u)
	if err != nil {
		return false, err
	}
	lv, err := s.Net.Fetch(v)
	if err != nil {
		return false, err
	}
	return s.Dec.Adjacent(lu, lv, s.Net.Fetch)
}

// LabelsOf extracts the per-vertex labels from a core.Labeling for network
// construction.
func LabelsOf(lab *core.Labeling) ([]bitstr.String, error) {
	out := make([]bitstr.String, lab.N())
	for v := 0; v < lab.N(); v++ {
		l, err := lab.Label(v)
		if err != nil {
			return nil, err
		}
		out[v] = l
	}
	return out, nil
}
