package buffer

import "fmt"

// Allocate splits total frames across the levels of the v-group forests
// using the paper's buffer allocation strategy (Section 5.3):
//
//   - the last level gets 2 × threads frames (one for the page being
//     processed, one for the asynchronous read in flight, per thread) — it
//     needs no more because it streams: the engine matches each of its
//     pages as it lands and unpins it when that ends (core's streamPass),
//     refilling once half of these frames are free, so this is a bound on
//     pages in flight, not a window size, and Equation 1's M / (|V_R| − 1)
//     region per level is what the remaining levels really share;
//   - two thirds of the remaining frames go to level 1 (the internal area);
//   - the final third is divided equally among the middle levels;
//   - with two levels (triangulation) all remaining frames go to level 1.
//
// That rule is written for a buffer far below the graph. pages, when
// positive, is the database's page count: whenever the frames beside it
// still give every deeper level one, level 1 gets exactly pages — the whole
// graph in one window, never more, frames beyond the graph are useless to
// it — and the surplus is split over the deeper levels by the rule above.
// Below that, and with pages 0, the paper's split is returned unchanged.
//
// Every level is guaranteed at least one frame. The slice is indexed by
// level-1 (alloc[0] is level 1).
func Allocate(total, levels, threads, pages int) ([]int, error) {
	if levels < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 level, got %d", levels)
	}
	threads = max(threads, 1)
	if total < levels {
		return nil, fmt.Errorf("buffer: %d frames cannot serve %d levels", total, levels)
	}
	if pages > 0 && total-pages >= levels-1 {
		alloc := []int{pages}
		if levels > 1 {
			deep, err := Allocate(total-pages, levels-1, threads, 0)
			if err != nil {
				return nil, err
			}
			alloc = append(alloc, deep...)
		}
		return alloc, nil
	}
	alloc := make([]int, levels)
	if levels == 1 {
		alloc[0] = total
		return alloc, nil
	}
	last := 2 * threads
	if last > total-(levels-1) {
		last = total - (levels - 1) // leave one frame per earlier level
	}
	last = max(last, 1)
	alloc[levels-1] = last
	remaining := total - last
	if levels == 2 {
		alloc[0] = remaining
		return alloc, nil
	}
	first := max(remaining*2/3, 1)
	middleLevels := levels - 2
	middle := remaining - first
	if middle < middleLevels {
		middle = middleLevels
		first = remaining - middle
		if first < 1 {
			return nil, fmt.Errorf("buffer: %d frames too few for %d levels", total, levels)
		}
	}
	alloc[0] = first
	base := middle / middleLevels
	extra := middle % middleLevels
	for l := 1; l <= middleLevels; l++ {
		alloc[l] = base
		if l <= extra {
			alloc[l]++
		}
	}
	return alloc, nil
}

// AllocateEqual divides total frames equally among levels (the strategy the
// paper attributes to OPT and uses as the ablation baseline), leaving at
// least one frame per level.
func AllocateEqual(total, levels int) ([]int, error) {
	if levels < 1 {
		return nil, fmt.Errorf("buffer: need at least 1 level, got %d", levels)
	}
	if total < levels {
		return nil, fmt.Errorf("buffer: %d frames cannot serve %d levels", total, levels)
	}
	alloc := make([]int, levels)
	base := total / levels
	extra := total % levels
	for l := range alloc {
		alloc[l] = base
		if l < extra {
			alloc[l]++
		}
	}
	return alloc, nil
}
