// Package repro is a Go reproduction of "Near Optimal Adjacency Labeling
// Schemes for Power-Law Graphs" (Petersen, Rotbart, Simonsen, Wulff-Nilsen;
// ICALP 2016, announced at PODC 2016 as "Brief Announcement: Labeling
// Schemes for Power-Law Graphs").
//
// The library lives under internal/: the paper's fat/thin adjacency
// labeling schemes (internal/core), the P_h/P_l power-law graph families
// and their constants (internal/powerlaw), the Section 5 lower-bound
// construction and workload generators (internal/gen), the Section 6
// relaxations (internal/schemes/forest, internal/schemes/onequery), the
// Lemma 7 distance labels (internal/schemes/distance), and the evaluation
// harness (internal/experiments). See README.md for a tour, DESIGN.md for
// the system inventory, and EXPERIMENTS.md for the paper-vs-measured
// results. cmd/plbench regenerates every experiment table; bench_test.go
// holds per-scheme encode and decode micro-benchmarks.
package repro
