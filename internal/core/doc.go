// Copyright of the reproduced design belongs to the DUALSIM authors (Kim
// et al., SIGMOD 2016); this package is an independent implementation.
//
// # How the engine maps to the paper
//
// There is one window mechanism and a solo run is a cohort of one (solo =
// sweep of one): Sweep is the only level-1 scan source, run.loadWindow the
// only window loader, run.streamPass the only last-level pass, run.issueRuns
// the only issuer of reads, and Engine.RunSpecContext rides a private Sweep
// as its single Rider exactly as internal/sharedscan rides a shared one
// with N.
//
// Algorithm 1 (DUALSIM) corresponds to Engine.RunSpecContext's loop over
// Sweep.Load, Rider.ProcessWindow and Sweep.Release:
//
//	Lines 1-5  (preparation)            -> plan.Prepare (package plan)
//	Line 6     (init candidate seqs)    -> none stored: a forest root's
//	                                       (run.root) are every vertex, in a
//	                                       window its ID range lo..hi
//	Lines 7-10 (async level-1 window)   -> Sweep.Load -> run.loadWindow:
//	                                       one coalesced AsyncReadRun per
//	                                       page stretch; the callback merges
//	                                       records (COMPUTECANDIDATESEQUENCES'
//	                                       data side) while later reads
//	                                       proceed
//	Line 13    (delegate external)      -> Rider.ProcessWindow ->
//	                                       run.processLevel(1), with
//	                                       last-level page tasks submitted
//	                                       to the shared worker pool as
//	                                       their pages land (stream.go)
//	Line 14    (internal enumeration)   -> run.dispatchInternal +
//	                                       run.internalEnumerate
//	Thread morphing                     -> one workerPool executes both
//	                                       internal and external tasks, so
//	                                       idle workers drain whichever kind
//	                                       remains
//	Lines 15-16 (unpin, clear)          -> Sweep.Release (run.unloadWindow),
//	                                       run.clearChildCandidates
//
// Algorithm 2 (DELEGATEEXTERNALSUBGRAPHENUMERATION) is processLevel for
// l >= 1: iterate merged windows and recurse; the last level is not chopped
// into windows but streamed (streamPass) — one pass over its merged
// candidate pages per window of the level above, each page matched by its
// own task as it lands and unpinned when that task ends, within the 2 ×
// threads frames the paper's allocation gives a level that streams.
//
// Algorithm 3 (COMPUTECANDIDATESEQUENCES) is split between loadWindow
// (collecting each window vertex's adjacency list) and
// computeChildCandidates (projecting those lists into per-child candidate
// vertex sequences with the Lemma 1 order pruning: a child position after
// its parent's position only admits larger neighbors, and vice versa).
//
// Algorithms 4-5 (EXTVERTEXMAPPING / RECEXTVERTEXMAPPING) are extMapPage /
// descend in match.go: the last level's vertex comes from the freshly
// loaded page, the remaining levels are matched in descending level order
// by intersecting the node's current window with already-assigned
// vertices' adjacency lists, each clipped beforehand to what the total order
// and the window's ID range leave open. The internal enumeration descends
// in the same order from a vertex of its chunk, inside the level-0 window.
// A complete position assignment expands into one embedding per full-order
// query sequence of the v-group (expandSequences), after which matchNonRed
// assigns black vertices by scanning one red adjacency list and ivory
// vertices by intersecting several — no I/O, since every needed list is
// pinned. Every candidate list is built by matcher.candidates: the list of
// the earliest-assigned connected position is marked once in a bit set
// (graph.Marks) and the intersection of the others (graph.Arena) probed
// against it. Without a row hook the plan's tail of interchangeable non-red
// vertices is counted with one binomial instead of enumerated (countTail).
//
// Deduplication between internal and external enumeration follows the
// paper: level-1 candidate sequences cover all vertices, so the level-1
// window is an ID interval [lo,hi]; a red match whose positions all fall in
// that interval is counted by the internal pass and skipped by the external
// descent (matcher.allInternal).
//
// I/O accounting invariants:
//
//   - windowIterator sizes windows so that pages not pinned by an outer
//     window never exceed the level's frame budget — walking a candidate
//     list's vertices, or for the full range (a root's) the page-first
//     array alone, which cuts the same windows (buffer.Allocate for a
//     solo run; for a cohort rider what the last window boundary dealt it,
//     the deals of one boundary summing to no more than the cohort's deep
//     pool — cohortBudget). With nothing
//     pinned it yields the Sweep's level-1 partition; a last-level pass
//     keeps to the same budget by issuing a read only against a free frame
//     of it (stream.issue);
//   - a vertex's multi-page adjacency span is atomic within a window, and
//     stays pinned within a pass until its last chunk has landed;
//   - every page a window touches is pinned exactly once by that window
//     and unpinned in unloadWindow, every page of a pass once per pass and
//     unpinned when its matching ends; pages shared with outer windows are
//     re-pinned cheaply (buffer hits), take no frame of the budget, and
//     release correctly on error paths (a failed load unloads its window, a
//     failed pass everything it still holds).
package core
