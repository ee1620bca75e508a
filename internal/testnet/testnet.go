// Package testnet builds small, fully wired internets for tests. It is
// imported only from _test files across the repository; keeping it as a
// regular package avoids duplicating fixture code in every package.
package testnet

import (
	"fmt"
	"time"

	"interdomain/internal/bgp"
	"interdomain/internal/netsim"
	"interdomain/internal/topology"
)

// Net bundles everything a test needs: the generated internet, the
// installed route table, and convenient handles.
type Net struct {
	In    *topology.Internet
	Table *bgp.Table
	// VP is a host inside the access AS (AS 100) in nyc.
	VP *netsim.Node
	// CongestedIC is the access-content interconnect in losangeles whose
	// content->access direction is overloaded during evening peaks.
	CongestedIC *topology.Interconnect
}

// ASNs used by the fixture.
const (
	AccessASN   = 100
	TransitASN  = 200
	ContentASN  = 300
	StubASN     = 400
	Transit2ASN = 500
)

// Config controls optional aspects of the fixture.
type Config struct {
	Seed uint64
	// CongestPeak is the overload above capacity at the diurnal peak of
	// the congested interconnect (default 0.25 => rho ~1.25 at peak).
	CongestPeak float64
	// ParallelNYC adds parallel links on the access-transit adjacency in
	// nyc (for ECMP tests). Default 1.
	ParallelNYC int
}

// Build generates the fixture internet. It panics on error: fixture
// construction failing is a programming error in the test.
func Build(cfg Config) *Net { return BuildCustom(cfg, nil) }

// BuildCustom generates the fixture internet, letting the caller mutate
// the topology config (e.g. to flip address ownership of a link) before
// construction.
func BuildCustom(cfg Config, mutate func(*topology.Config)) *Net {
	if cfg.CongestPeak == 0 {
		cfg.CongestPeak = 0.25
	}
	if cfg.ParallelNYC == 0 {
		cfg.ParallelNYC = 1
	}
	tc := topology.Config{
		Seed:   cfg.Seed,
		Metros: []topology.Metro{{Name: "nyc", TZOffsetHours: -5}, {Name: "chicago", TZOffsetHours: -6}, {Name: "losangeles", TZOffsetHours: -8}},
		IXPs:   []topology.IXPSpec{{Name: "nyiix", Metro: "nyc"}},
		ASes: []topology.ASSpec{
			{ASN: AccessASN, Name: "acme", Kind: topology.AccessISP, Metros: []string{"nyc", "chicago", "losangeles"}, NumHosts: 3},
			{ASN: TransitASN, Name: "bigtransit", Kind: topology.Transit, Metros: []string{"nyc", "chicago", "losangeles"}},
			{ASN: ContentASN, Name: "contentco", Kind: topology.Content, Metros: []string{"nyc", "losangeles"}},
			{ASN: StubASN, Name: "stubnet", Kind: topology.Stub, Metros: []string{"chicago"}},
			{ASN: Transit2ASN, Name: "othertransit", Kind: topology.Transit, Metros: []string{"nyc", "chicago"}},
		},
		Adjs: []topology.AdjSpec{
			{A: AccessASN, B: TransitASN, Rel: topology.C2P, Metros: []string{"nyc", "chicago"}, Parallel: cfg.ParallelNYC},
			{A: AccessASN, B: ContentASN, Rel: topology.P2P, Metros: []string{"losangeles"}},
			{A: AccessASN, B: ContentASN, Rel: topology.P2P, Via: "nyiix"},
			{A: AccessASN, B: Transit2ASN, Rel: topology.P2P, Metros: []string{"chicago"}},
			{A: StubASN, B: TransitASN, Rel: topology.C2P},
			{A: StubASN, B: Transit2ASN, Rel: topology.C2P},
			{A: ContentASN, B: TransitASN, Rel: topology.C2P, Metros: []string{"losangeles"}},
			{A: TransitASN, B: Transit2ASN, Rel: topology.P2P, Metros: []string{"chicago"}},
		},
	}
	if mutate != nil {
		mutate(&tc)
	}
	in, err := topology.Build(tc)
	if err != nil {
		panic(fmt.Sprintf("testnet: build: %v", err))
	}
	table, err := bgp.InstallRoutes(in)
	if err != nil {
		panic(fmt.Sprintf("testnet: routes: %v", err))
	}

	n := &Net{In: in, Table: table}

	// Pick the VP: the access AS host in nyc.
	access := in.ASes[AccessASN]
	plumb := in.Plumb[AccessASN]
	for _, h := range access.Hosts {
		if plumb.HostMetro[h] == "nyc" {
			n.VP = h
			break
		}
	}
	if n.VP == nil {
		panic("testnet: no VP host in nyc")
	}

	// Congest the losangeles access-content PNI in the content->access
	// direction (the replies to TSLP probes traverse it).
	for _, ic := range in.InterconnectsOf(AccessASN, ContentASN) {
		if ic.Metro == "losangeles" && ic.IXP == "" {
			n.CongestedIC = ic
			break
		}
	}
	if n.CongestedIC == nil {
		panic("testnet: no losangeles access-content interconnect")
	}
	dirIntoAccess := directionToward(n.CongestedIC, AccessASN)
	n.CongestedIC.Link.SetProfile(dirIntoAccess, &netsim.LoadProfile{
		Base:           0.45,
		PeakAmplitude:  0.55 + cfg.CongestPeak,
		PeakHour:       21,
		PeakWidthHours: 2.5,
		WeekendFactor:  1,
		NoiseAmplitude: 0.03,
		TZOffsetHours:  -8,
		Seed:           netsim.Hash64(cfg.Seed, 0xc0),
	})
	return n
}

// VPIn returns an access-AS host in the given metro to use as a vantage
// point, or nil if none exists there.
func (n *Net) VPIn(metro string) *netsim.Node {
	plumb := n.In.Plumb[AccessASN]
	for _, h := range n.In.ASes[AccessASN].Hosts {
		if plumb.HostMetro[h] == metro {
			return h
		}
	}
	return nil
}

// directionToward returns the link direction whose traffic flows *into*
// the given AS.
func directionToward(ic *topology.Interconnect, asn int) netsim.Direction {
	near, _, ok := ic.Side(asn)
	if !ok {
		panic("testnet: AS not on interconnect")
	}
	// Traffic into asn arrives at asn's interface.
	if near == ic.Link.A {
		return netsim.BtoA
	}
	return netsim.AtoB
}

// PeakTime returns a time at the losangeles evening peak on the given day.
func PeakTime(day int) time.Time {
	// 21:00 local in losangeles (UTC-8) = 05:00 UTC next day.
	return netsim.Day(day).Add(29 * time.Hour)
}

// OffPeakTime returns a time in the early local morning of the given day.
func OffPeakTime(day int) time.Time {
	// 06:00 local = 14:00 UTC.
	return netsim.Day(day).Add(14 * time.Hour)
}
