package main

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dualsim"
)

// TestCompareCountsAgree runs `bench compare` on Zachary's karate club for
// the triangle query: DUALSIM, TwinTwigJoin and PSgL must each report the
// brute-force count.
func TestCompareCountsAgree(t *testing.T) {
	const edgeFile = "../../testdata/karate.txt"
	f, err := os.Open(edgeFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var edges [][2]dualsim.VertexID
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var u, v uint32
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &u, &v); err == nil {
			edges = append(edges, [2]dualsim.VertexID{dualsim.VertexID(u), dualsim.VertexID(v)})
		}
	}
	q, err := dualsim.ParseQuery("q1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := dualsim.CountInMemory(34, edges, q)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := cmdCompare([]string{"-edges", edgeFile, "-q", "q1", "-threads", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	counts := regexp.MustCompile(`count=(\d+)`).FindAllStringSubmatch(out.String(), -1)
	if len(counts) != 3 {
		t.Fatalf("want 3 count lines (DUALSIM, TwinTwigJoin, PSgL), got %d:\n%s", len(counts), out.String())
	}
	for _, m := range counts {
		if got, _ := strconv.ParseUint(m[1], 10, 64); got != want {
			t.Errorf("count=%d, brute force says %d:\n%s", got, want, out.String())
		}
	}
}
