package main

import (
	"strings"
	"testing"
	"time"
)

// base is a valid default-ish configuration; each case mutates one
// aspect of it.
func base() flagConfig {
	return flagConfig{
		grace:    10 * time.Second,
		inflight: 64,
		queue:    16,
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(base()); err != nil {
		t.Fatalf("default configuration rejected: %v", err)
	}
	minimal := flagConfig{inflight: 1, queue: 1}
	if err := validateFlags(minimal); err != nil {
		t.Fatalf("minimal configuration rejected: %v", err)
	}

	mut := func(f func(*flagConfig)) flagConfig {
		c := base()
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  flagConfig
		want string
	}{
		{"negative grace", mut(func(c *flagConfig) { c.grace = -time.Second }), "-grace"},
		{"zero inflight", mut(func(c *flagConfig) { c.inflight = 0 }), "-inflight"},
		{"negative inflight", mut(func(c *flagConfig) { c.inflight = -3 }), "-inflight"},
		{"zero queue", mut(func(c *flagConfig) { c.queue = 0 }), "-queue"},
		{"negative workers", mut(func(c *flagConfig) { c.workers = -1 }), "-workers"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}
