package main

import (
	"reflect"
	"strings"
	"testing"
)

// canned is go test -bench output over two packages: the first run with
// GOMAXPROCS 2 (names carry a -2 suffix), the second with GOMAXPROCS 1 (no
// suffix), with sub-benchmarks, custom units and a result-less name line.
const canned = `goos: linux
pkg: stmdiag
BenchmarkVMTrial-2   	    1336	    896628 ns/op	  43568924 instrs/sec	   43852 B/op
BenchmarkVMTrial-2   	    1300	    900000 ns/op	  43000000 instrs/sec	   43852 B/op
BenchmarkVMTrial-2   	    1310	    880000 ns/op	  44000000 instrs/sec	   43852 B/op
BenchmarkTable7Concurrency/jobs=1-2  	       1	  77131864 ns/op	         7.000 LCRA-diagnosed/11
BenchmarkTrial/profile/subprocess-2 	1000	1000 ns/op
BenchmarkTrial/profile/subprocess-2 	1000	2000 ns/op
BenchmarkTrial/profile/federated-2  	1000	1100 ns/op
BenchmarkTrial/profile/federated-2  	1000	3000 ns/op
BenchmarkTable7Served-2 	       3	 497715541 ns/op	 258066132 served-ns/run	         1.077 served/sub	 239612742 sub-ns/run
ok  	stmdiag	0.398s
pkg: stmdiag/internal/fleet
BenchmarkFleetIngest
BenchmarkFleetIngest   	     100	    363633 ns/op	    176002 profiles/sec
ok  	stmdiag/internal/fleet	0.048s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string][]float64{
		"BenchmarkVMTrial": {
			"ns/op":      {896628, 900000, 880000},
			"instrs/sec": {43568924, 43000000, 44000000},
			"B/op":       {43852, 43852, 43852},
		},
		"BenchmarkTable7Concurrency/jobs=1": {"ns/op": {77131864}, "LCRA-diagnosed/11": {7}},
		"BenchmarkTrial/profile/subprocess": {"ns/op": {1000, 2000}},
		"BenchmarkTrial/profile/federated":  {"ns/op": {1100, 3000}},
		"BenchmarkTable7Served": {
			"ns/op":         {497715541},
			"served-ns/run": {258066132},
			"served/sub":    {1.077},
			"sub-ns/run":    {239612742},
		},
		"BenchmarkFleetIngest": {"ns/op": {363633}, "profiles/sec": {176002}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parse:\n got  %v\n want %v", got, want)
	}
}

func TestRecord(t *testing.T) {
	samples, err := parse(strings.NewReader(canned))
	if err != nil {
		t.Fatal(err)
	}
	got, err := record([]metric{
		{key: "ips", bench: "BenchmarkVMTrial", unit: "instrs/sec"},
		{key: "ratio", bench: "BenchmarkTrial/profile/federated", unit: "ns/op", over: "BenchmarkTrial/profile/subprocess"},
		{key: "pps", bench: "BenchmarkFleetIngest", unit: "profiles/sec"},
		{key: "served", bench: "BenchmarkTable7Served", unit: "served/sub"},
	}, samples)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]stat{
		"ips":    {Median: 43568924, IQR: [2]float64{43284462, 43784462}, Samples: 3},
		"ratio":  {Median: 1.3, IQR: [2]float64{1.2, 1.4}, Samples: 2},
		"pps":    {Median: 176002, IQR: [2]float64{176002, 176002}, Samples: 1},
		"served": {Median: 1.077, IQR: [2]float64{1.077, 1.077}, Samples: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record:\n got  %v\n want %v", got, want)
	}
	for _, m := range []metric{
		{key: "gone", bench: "BenchmarkCacheAccess", unit: "ns/op"},
		{key: "unit", bench: "BenchmarkVMTrial", unit: "profiles/sec"},
		{key: "den", bench: "BenchmarkVMTrial", unit: "ns/op", over: "BenchmarkLBRRecord"},
	} {
		if _, err := record([]metric{m}, samples); err == nil {
			t.Errorf("%s: missing benchmark or unit recorded without error", m.key)
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want stat
	}{
		{[]float64{7, 1, 6, 2, 5, 3, 4}, stat{Median: 4, IQR: [2]float64{2.5, 5.5}, Samples: 7}},
		{[]float64{4, 3, 2, 1}, stat{Median: 2.5, IQR: [2]float64{1.75, 3.25}, Samples: 4}},
		{[]float64{1.0 / 3}, stat{Median: 0.333, IQR: [2]float64{0.333, 0.333}, Samples: 1}},
	} {
		if got := summarize(c.in); got != c.want {
			t.Errorf("summarize = %+v, want %+v", got, c.want)
		}
	}
}
