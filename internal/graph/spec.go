package graph

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseQuerySpec resolves a query specification: a catalog name (q1..q5,
// triangle, house, ...) or an explicit edge list like "0-1,1-2,0-2". The CLI
// and the query service share this syntax.
func ParseQuerySpec(spec string) (*Query, error) {
	if q, err := QueryByName(spec); err == nil {
		return q, nil
	}
	var edges [][2]int
	maxV := -1
	for _, part := range strings.Split(spec, ",") {
		uv := strings.SplitN(strings.TrimSpace(part), "-", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("bad query edge %q (want e.g. 0-1,1-2,0-2)", part)
		}
		u, err := strconv.Atoi(uv[0])
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(uv[1])
		if err != nil {
			return nil, err
		}
		maxV = max(maxV, u, v)
		edges = append(edges, [2]int{u, v})
	}
	return NewQuery("custom", maxV+1, edges)
}
