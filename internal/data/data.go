// Package data generates the paper's workloads. The synthetic
// distributions (IND, COR, ANTI) follow the classic skyline benchmark
// generators of Börzsönyi et al. [14]. The real datasets (HOTEL, HOUSE,
// NBA, TripAdvisor) are not redistributable, so this package synthesises
// stand-ins that match their cardinality, dimensionality and correlation
// structure — the only properties the paper's experiments depend on (see
// DESIGN.md, "Substitutions"). All attributes are normalised to [0, 1]
// with larger-is-better semantics.
package data

import (
	"fmt"
	"math"
	"math/rand"

	"ordu/internal/geom"
)

// Distribution names a synthetic data distribution.
type Distribution string

// The three synthetic distributions of the paper's evaluation.
const (
	IND  Distribution = "IND"  // independent uniform attributes
	COR  Distribution = "COR"  // correlated (clustered along the diagonal)
	ANTI Distribution = "ANTI" // anticorrelated (clustered around a hyperplane)
)

// Canonical cardinalities and dimensionalities of the paper's datasets.
const (
	HotelN = 418843
	HotelD = 4
	HouseN = 315265
	HouseD = 6
	NBAN   = 21960
	NBAD   = 8
	TAN    = 1850
	TAD    = 7
)

func clip01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Synthetic generates n d-dimensional records from the given distribution.
func Synthetic(dist Distribution, n, d int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := make(geom.Vector, d)
		switch dist {
		case IND:
			for j := range p {
				p[j] = rng.Float64()
			}
		case COR:
			// A diagonal position with symmetric per-axis spread. The
			// spread is large enough that the top-k union over the whole
			// preference domain comfortably exceeds the paper's m range
			// (the real Börzsönyi generator has comparable looseness),
			// while the attributes remain strongly positively correlated.
			b := 0.5 + 0.2*rng.NormFloat64()
			if b < 0.13 {
				b = 0.13
			} else if b > 0.87 {
				b = 0.87
			}
			for j := range p {
				// The clamp above keeps every coordinate inside (0,1): a
				// clipped pile-up at the unit corner would otherwise create
				// a single record that tops the entire preference domain.
				p[j] = b + 0.24*(rng.Float64()-0.5)
			}
		case ANTI:
			// Uniform direction rescaled so the coordinate sum clusters
			// tightly around d/2: records trade off against each other.
			s := 0.0
			for j := range p {
				p[j] = rng.Float64()
				s += p[j]
			}
			target := float64(d)/2 + 0.25*rng.NormFloat64()
			f := target / s
			for j := range p {
				p[j] = clip01(p[j] * f)
			}
		default:
			panic(fmt.Sprintf("data: unknown distribution %q", dist)) //ordlint:allow nopanic — exhaustive switch over the package-defined enum
		}
		pts[i] = p
	}
	return pts
}

// Hotel synthesises a HOTEL-like dataset (4 attributes: think location,
// price-value, rating, stars): a mild quality factor correlates the
// attributes, with substantial independent variation. n <= 0 uses the
// paper's cardinality.
func Hotel(n int, seed int64) []geom.Vector {
	if n <= 0 {
		n = HotelN
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		q := rng.Float64() // latent quality
		p := make(geom.Vector, HotelD)
		for j := range p {
			p[j] = clip01(0.35*q + 0.65*rng.Float64())
		}
		pts[i] = p
	}
	return pts
}

// House synthesises a HOUSE-like dataset (6 household expense types):
// expenses correlate positively through household income.
func House(n int, seed int64) []geom.Vector {
	if n <= 0 {
		n = HouseN
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		income := math.Pow(rng.Float64(), 1.5) // right-skewed
		p := make(geom.Vector, HouseD)
		for j := range p {
			p[j] = clip01(0.5*income + 0.5*rng.Float64())
		}
		pts[i] = p
	}
	return pts
}

// NBA synthesises an NBA-like dataset (8 per-season statistics): a
// heavy-tailed overall-ability factor plus role archetypes that trade
// playmaking off against rebounding, producing both stars that lead single
// categories and broad mid-tier parity.
func NBA(n int, seed int64) []geom.Vector {
	if n <= 0 {
		n = NBAN
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		pts[i] = nbaStatLine(rng, NBAD)
	}
	return pts
}

// nbaStatLine draws one player's normalised stat line. The mixture of a
// heavy-tailed overall ability, role trade-offs, and strong per-stat
// multiplicative noise matches the shape of real per-season statistics:
// broad mid-tier parity, role specialists, and single-category leaders
// whose other stats are middling — so low-dimensional projections have
// skybands of a realistic size.
func nbaStatLine(rng *rand.Rand, d int) geom.Vector {
	// Heavy-tailed ability: most players are role players, a few are stars.
	ability := 0.15 + 0.85*math.Pow(rng.Float64(), 2.2)
	// Role in [0,1]: 0 = pure playmaker, 1 = pure big man.
	role := rng.Float64()
	p := make(geom.Vector, d)
	for j := range p {
		var roleAffinity float64
		switch j % 4 {
		case 0: // scoring-like: mildly guard/wing-favoured, so the scoring
			// and rebounding frontiers trade off as in real rosters
			roleAffinity = 1.25 - 0.55*role
		case 1: // rebounding-like: favours bigs; the square root makes the
			// playmaking/rebounding trade-off concave (a circular arc), as
			// in real rosters where two-way bigs exist — and hence a
			// vertex-rich upper hull
			roleAffinity = 0.25 + 1.35*math.Sqrt(role)
		case 2: // assist-like: favours playmakers
			roleAffinity = 0.25 + 1.35*math.Sqrt(1-role)
		case 3: // defence-like: mildly big-favoured
			roleAffinity = 0.6 + 0.8*role
		}
		// Per-stat multiplicative spread decorrelates the top end; the 0.6
		// rescale keeps the product below the clipping boundary so no
		// artificial pile-up of category co-leaders forms at 1.0.
		skill := 0.35 + 0.65*rng.Float64()
		p[j] = clip01(0.6*ability*roleAffinity*skill + 0.06*rng.Float64())
	}
	return p
}

// Player is one record of the Figure-6 case-study dataset.
type Player struct {
	Name  string
	Stats geom.Vector // [points, rebounds, assists]
}

// NBA2019 synthesises the 708-player 2018-19 season slice used in the
// paper's case study (Figure 6), with three normalised attributes
// (points, rebounds, assists). The generator plants category leaders that
// play the roles of the season's scoring leader (cf. James Harden), rebound
// leader (cf. Andre Drummond) and a high-assist rising star (cf. Trae
// Young): records that are extreme in one attribute yet only middling in
// the seed direction, exactly the shape the case study turns on.
func NBA2019(seed int64) []Player {
	rng := rand.New(rand.NewSource(seed))
	const n = 708
	players := make([]Player, 0, n)
	for i := 0; i < n-3; i++ {
		line := nbaStatLine(rng, 3)
		players = append(players, Player{
			Name:  fmt.Sprintf("Player-%03d", i),
			Stats: line,
		})
	}
	// Planted leaders: top in one category, clearly weaker in the others.
	players = append(players,
		Player{Name: "ScoringLeader", Stats: geom.Vector{1.00, 0.42, 0.50}},
		Player{Name: "ReboundLeader", Stats: geom.Vector{0.55, 1.00, 0.12}},
		Player{Name: "RisingPlaymaker", Stats: geom.Vector{0.62, 0.25, 1.00}},
	)
	return players
}

// TripAdvisor synthesises the TA dataset: 1,850 hotels rated on 7 aspects
// with strong positive correlation (the paper notes its 5-skyband holds
// only 61 hotels). n <= 0 uses the canonical cardinality.
func TripAdvisor(n int, seed int64) []geom.Vector {
	if n <= 0 {
		n = TAN
	}
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vector, n)
	for i := range pts {
		q := clip01(0.55 + 0.2*rng.NormFloat64()) // overall hotel quality
		p := make(geom.Vector, TAD)
		for j := range p {
			p[j] = clip01(q + 0.055*rng.NormFloat64())
		}
		pts[i] = p
	}
	return pts
}

// TAUserVectors simulates the 137,563 review-mined preference vectors of
// [70]: each user has a latent preference drawn from a mildly concentrated
// Dirichlet (users care about everything, with individual emphasis), as
// produced by rating-regression mining on review text.
func TAUserVectors(count int, seed int64) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	base := make(geom.Vector, TAD)
	for i := range base {
		base[i] = 1 / float64(TAD)
	}
	out := make([]geom.Vector, count)
	for i := range out {
		out[i] = geom.RandDirichlet(rng, base, 12)
	}
	return out
}
