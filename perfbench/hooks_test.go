package main

import (
	"testing"
	"time"

	"fsnewtop/internal/sig"
	"fsnewtop/transport"
)

// TestMeteredNetIsTransparent runs traffic through metered clusters of
// both systems and checks that the wrapper counts exactly the messages
// the substrate itself counts, forwards its capabilities, and changes
// nothing the application sees.
func TestMeteredNetIsTransparent(t *testing.T) {
	for _, fs := range []bool{true, false} {
		m := newMeter(0)
		m.on.Store(true)
		c, err := buildCluster(clusterConfig{members: 3, fs: fs, seed: 7, meter: m})
		if err != nil {
			t.Fatal(err)
		}
		a := newApp(c, 1024, 7, 0)
		if err := c.joinAll(); err != nil {
			t.Fatal(err)
		}
		if !waitFor(formTimeout, a.formed) {
			t.Fatalf("fs=%v: group did not form", fs)
		}
		all := indices(3)
		for k := 0; k < 20; k++ {
			for _, i := range all {
				if err := a.multicast(i, a.now()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !waitFor(10*time.Second, func() bool { return a.undelivered(all, all) == 0 }) {
			t.Fatalf("fs=%v: multicasts not delivered", fs)
		}
		if errs := a.orderCheck(all); len(errs) > 0 {
			t.Fatalf("fs=%v: %v", fs, errs)
		}

		tr := &meteredNet{inner: c.net, m: m}
		if _, ok := transport.GetStats(tr); !ok {
			t.Errorf("fs=%v: wrapper hides StatsSource", fs)
		}
		if _, ok := transport.Transport(tr).(transport.FaultInjector); !ok {
			t.Errorf("fs=%v: wrapper hides FaultInjector", fs)
		}
		c.close()
		a.close()
		// Read after close: no send is in flight between the two reads.
		if got, want := m.sends.n.Load(), c.net.Stats().Sent; got != want || want == 0 {
			t.Errorf("fs=%v: meter counted %d sends, substrate %d", fs, got, want)
		}
		if got, want := tr.FramesSent(), c.net.FramesSent(); got != want {
			t.Errorf("fs=%v: FramesSent %d, substrate %d", fs, got, want)
		}
		if fs && c.fab.NewSigner != nil {
			t.Errorf("fabric signer replaced: members must sign with the default HMAC signer")
		}
	}
}

// wrappedSigner is what a signing hook would have to install.
type wrappedSigner struct{ sig.Signer }

// TestSignerHookRefused pins why the benchmark has no sig.Signer wrapper:
// the key directory accepts only the sig package's own signer types, so a
// wrapped signer cannot be registered and its pair cannot be built.
func TestSignerHookRefused(t *testing.T) {
	inner := sig.NewHMACSigner("x", []byte("k"))
	if err := sig.NewDirectory().RegisterSigner(wrappedSigner{inner}); err == nil {
		t.Fatal("a wrapped signer registered: the benchmark can time signing through Fabric.NewSigner")
	}
}

// TestResolveSelfTime checks parent links and self time on one goroutine
// and isolation between goroutines.
func TestResolveSelfTime(t *testing.T) {
	spans := []span{
		{Name: "net.handle.leader", G: 1, Start: 0, End: 100},
		{Name: "net.send", G: 1, Start: 10, End: 30},
		{Name: "net.send", G: 1, Start: 40, End: 50},
		{Name: "net.send", G: 2, Start: 20, End: 60}, // other goroutine: a root
	}
	totals := resolve(spans)
	if spans[1].Parent != 0 || spans[2].Parent != 0 || spans[0].Parent != -1 || spans[3].Parent != -1 {
		t.Fatalf("parents = %d %d %d %d", spans[0].Parent, spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
	want := map[string][2]float64{
		"net.handle.leader": {0.1, 0.07},
		"net.send":          {0.07, 0.07},
	}
	for _, tt := range totals {
		w := want[tt.Name]
		if tt.TotalS != w[0] || tt.SelfS != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", tt.Name, tt.TotalS, tt.SelfS, w[0], w[1])
		}
	}
}
