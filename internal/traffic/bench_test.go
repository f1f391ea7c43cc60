package traffic

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// Sinks keep the compiler from discarding the measured calls.
var (
	routeSink      *core.Instance
	routeMultiSink *core.MultiInstance
)

// BenchmarkRoute routes the Figure 8 instance: Paper15 (topology seed
// 0) under demand seed 1, 1,980 demands from 45 sources.
func BenchmarkRoute(b *testing.B) {
	pop := topology.Generate(topology.Paper15)
	demands := Demands(pop, Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := Route(pop, demands)
		if err != nil {
			b.Fatal(err)
		}
		routeSink = in
	}
}

// BenchmarkRouteMulti routes the ppme workload's instance shape, a
// seven-router POP with 8 endpoints (56 demands), over two routes each.
func BenchmarkRouteMulti(b *testing.B) {
	pop := topology.Generate(topology.Config{Routers: 7, InterRouterLinks: 11, Endpoints: 8, Seed: 1})
	demands := Demands(pop, Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mi, err := RouteMulti(pop, demands, 2)
		if err != nil {
			b.Fatal(err)
		}
		routeMultiSink = mi
	}
}

// BenchmarkRouteScale is the instance-build point of the size sweep:
// routing every ordered endpoint pair of a topology.Scale POP (150
// routers: 180 endpoints, 32,220 demands; 300 routers: 360 endpoints,
// 129,240 demands).
func BenchmarkRouteScale(b *testing.B) {
	for _, routers := range []int{150, 300} {
		pop := topology.Scale(routers, rand.New(rand.NewSource(1)))
		demands := Demands(pop, Config{Seed: 1})
		b.Run(fmt.Sprintf("routers=%d", routers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in, err := Route(pop, demands)
				if err != nil {
					b.Fatal(err)
				}
				routeSink = in
			}
		})
	}
}
