package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"janus/internal/policy"
)

// endpointsMatchingRef is EndpointsMatching written the obvious way: the
// group's labels and each endpoint's labels as sets.
func endpointsMatchingRef(t *Topology, epg policy.EPG) []string {
	want := map[string]bool{}
	for _, l := range epg.Labels {
		want[l] = true
	}
	var out []string
	for _, ep := range t.Endpoints {
		have := map[string]bool{}
		for _, l := range ep.Labels {
			have[l] = true
		}
		all := true
		for l := range want {
			all = all && have[l]
		}
		if all {
			out = append(out, ep.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestEndpointsMatchingMatchesSetReference draws random endpoints and
// groups over a small label alphabet, duplicates, empty sets and labels
// that differ only in case included, and holds EndpointsMatching to the
// set-based reference.
func TestEndpointsMatchingMatchesSetReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"Nml", "Mktg", "Web", "DB", "IT", "nml", "mktg"}
	draw := func() []string {
		out := make([]string, rng.Intn(5))
		for i := range out {
			out[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		tp := NewTopology("m")
		s := tp.AddSwitch("s")
		for e := rng.Intn(12); e > 0; e-- {
			if err := tp.AddEndpoint(fmt.Sprintf("ep%d", e), s, draw()...); err != nil {
				t.Fatal(err)
			}
		}
		for g := 0; g < 10; g++ {
			// A literal EPG, not NewEPG: duplicates and the empty set stay.
			epg := policy.EPG{Name: "g", Labels: draw()}
			got, want := tp.EndpointsMatching(epg), endpointsMatchingRef(tp, epg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, group %q: EndpointsMatching = %v, reference %v", trial, epg.Labels, got, want)
			}
		}
	}
}
