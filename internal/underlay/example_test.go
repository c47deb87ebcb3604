package underlay_test

import (
	"fmt"

	"unap2p/internal/underlay"
)

// A minimal Figure 1 Internet: one transit ISP selling connectivity to
// two local ISPs. Valley-free routing climbs to the provider and
// descends; the customer-side byte counters are what transit billing
// reads.
func ExampleNetwork() {
	net := underlay.New()
	transit := net.AddAS(underlay.TransitISP, 5)
	homeISP := net.AddAS(underlay.LocalISP, 2)
	workISP := net.AddAS(underlay.LocalISP, 2)
	net.ConnectTransit(homeISP, transit, 10)
	net.ConnectTransit(workISP, transit, 10)

	home := net.AddHost(homeISP, 3)
	work := net.AddHost(workISP, 3)

	fmt.Println("AS path:", net.ASPath(homeISP.ID, workISP.ID))
	fmt.Println("one-way latency:", net.Latency(home, work))
	net.Send(home, work, 1_000_000)
	fmt.Println("bytes sent:", net.SentBytes())
	fmt.Println("home uplink carried:", homeISP.Links()[0].BytesAB)
	fmt.Println("work downlink carried:", workISP.Links()[0].BytesBA)
	// Output:
	// AS path: [1 0 2]
	// one-way latency: 28.000ms
	// bytes sent: 1000000
	// home uplink carried: 1000000
	// work downlink carried: 1000000
}
