package scenario

import (
	"time"

	"interdomain/internal/netsim"
	"interdomain/internal/topology"
)

// Phase is one stretch of a pair's congestion history: between months From
// (inclusive) and To (exclusive, offsets from March 2016), each link
// instance of the pair is overloaded in a given month with probability Q.
// Overload is the extra offered load above the baseline peak (0.3 pushes a
// 0.82 baseline peak to ~1.12 — queueing and loss for a few hours a day).
type Phase struct {
	From, To int
	Q        float64
	Overload float64
}

// Schedule maps AP -> T&CP -> phases. It encodes the §6 narrative; see the
// package comment. The pipeline under test never reads it.
var Schedule = map[int]map[int][]Phase{
	CenturyLink: {
		Google:   {{0, 22, 0.96, 0.55}},
		Tata:     {{5, 11, 0.28, 0.22}},
		Netflix:  {{4, 14, 0.25, 0.25}},
		XO:       {{6, 12, 0.2, 0.2}},
		Vodafone: nil, // no common footprint; kept for documentation
		Level3:   {{10, 13, 0.27, 0.2}},
		Telia:    nil,
		Zayo:     {{9, 10, 0.1, 0.18}},
	},
	ATT: {
		Google:  {{4, 12, 0.42, 0.25}},
		Tata:    {{0, 8, 0.62, 0.32}, {8, 12, 0.85, 0.5}, {12, 18, 0.52, 0.26}},
		NTT:     {{6, 14, 0.32, 0.24}},
		XO:      {{0, 16, 0.21, 0.24}},
		Netflix: {{5, 7, 0.23, 0.2}},
		Level3:  {{12, 15, 0.28, 0.2}},
		Telia:   {{4, 14, 0.26, 0.24}},
	},
	Cox: {
		Google:  {{10, 12, 0.15, 0.18}},
		Netflix: {{0, 12, 0.36, 0.3}},
		Level3:  {{0, 16, 0.45, 0.3}},
		Zayo:    {{11, 13, 0.18, 0.18}},
	},
	Comcast: {
		Google:   {{0, 4, 0.58, 0.28}, {8, 12, 0.66, 0.34}, {12, 16, 0.3, 0.22}},
		Tata:     {{3, 22, 0.36, 0.36}},
		NTT:      {{12, 22, 0.65, 0.3}},
		XO:       {{4, 12, 0.17, 0.2}},
		Netflix:  {{8, 9, 0.22, 0.18}},
		Level3:   {{13, 14, 0.28, 0.18}},
		Telia:    {{7, 12, 0.1, 0.18}},
		Vodafone: {{0, 6, 0.1, 0.18}},
	},
	Charter: {
		Google:  {{9, 12, 0.25, 0.2}},
		Netflix: {{6, 10, 0.25, 0.2}},
		XO:      nil, // no common footprint in this build
	},
	TWC: {
		Tata:     {{0, 10, 0.6, 0.34}},
		XO:       {{0, 9, 0.2, 0.22}},
		Netflix:  {{0, 11, 0.55, 0.3}},
		Vodafone: {{0, 6, 0.08, 0.18}},
		Telia:    {{0, 7, 0.11, 0.18}},
		Level3:   {{2, 4, 0.2, 0.18}},
	},
	Verizon: {
		Google:   {{2, 14, 0.47, 0.28}},
		Tata:     {{6, 8, 0.2, 0.2}},
		XO:       {{9, 10, 0.08, 0.16}},
		Netflix:  {{3, 8, 0.2, 0.2}},
		Vodafone: {{1, 8, 0.17, 0.2}},
		Telia:    {{8, 10, 0.1, 0.16}},
		Level3:   {{13, 14, 0.14, 0.16}},
	},
	RCN: {
		Zayo:   {{6, 18, 0.3, 0.25}},
		Level3: {{5, 6, 0.03, 0.14}},
	},
}

// MonthStart returns the UTC start of schedule month m (March 2016 = 0).
func MonthStart(m int) time.Time {
	return netsim.Epoch.AddDate(0, m, 0)
}

// Months is the length of the study (March 2016 through December 2017).
const Months = 22

// ApplySchedule adds congestion episodes to the into-AP direction of the
// scheduled pairs' links.
func ApplySchedule(in *topology.Internet, seed uint64) {
	for ap, pairs := range Schedule {
		for tcp, phases := range pairs {
			ics := in.InterconnectsOf(ap, tcp)
			for _, ic := range ics {
				into := directionInto(ic, ap)
				p := ic.Link.Profile(into)
				if p == nil {
					continue
				}
				for _, ph := range phases {
					for m := ph.From; m < ph.To && m < Months; m++ {
						h := netsim.Hash64(seed, 0x5c4ed, uint64(ap), uint64(tcp), uint64(ic.Link.ID), uint64(m))
						if float64(h%1000)/1000 >= ph.Q {
							continue
						}
						p.Episodes = append(p.Episodes, netsim.Episode{
							Start:     MonthStart(m),
							End:       MonthStart(m + 1),
							ExtraPeak: ph.Overload,
						})
					}
				}
			}
		}
	}
}
