package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which flag combinations unapnode refuses: each
// rejected one names a flag whose effect main would otherwise drop.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		flags   string // flags given on the command line
		lookups int
		wantErr string // "" = accepted
	}{
		{"", 0, ""},
		{"id listen overlay bootstrap metrics", 0, ""},
		{"lookups oneshot expect", 100, ""},
		{"lookups relookup expect chaos chaos-epoch chaos-ases chaos-seed", 25, ""},
		{"oneshot", 0, "-oneshot needs -lookups"},
		{"lookups oneshot", 0, "-oneshot needs -lookups"},
		{"relookup", 0, "-relookup needs -lookups"},
		{"expect", 0, "-expect needs -lookups"},
		{"lookups oneshot relookup", 10, "-oneshot exits before -relookup"},
		{"chaos-epoch", 0, "-chaos-epoch needs -chaos"},
		{"chaos-ases", 0, "-chaos-ases needs -chaos"},
		{"lookups chaos-seed", 10, "-chaos-seed needs -chaos"},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(c.flags) {
			set[name] = true
		}
		err := checkFlags(set, c.lookups)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("flags %q, lookups %d: unexpected error %v", c.flags, c.lookups, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("flags %q, lookups %d: error %v, want %q", c.flags, c.lookups, err, c.wantErr)
		}
	}
}
