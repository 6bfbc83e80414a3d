package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"

	"pi2/internal/engine"
)

// The SkyServer-shaped scenario: SDSS-like galaxy and specObj tables over a
// 20° × 4° sky window, joined one-to-one on objID = bestObjID, with a
// Listing-5-shaped query log.
const (
	skyRaLo, skyRaHi   = 180.0, 200.0
	skyDecLo, skyDecHi = -2.0, 2.0
	skyZLo, skyZHi     = 0.05, 0.25
	skyFirstID         = 1000
)

// skyKeys are the primary keys the catalogue uses for functional-dependency
// inference, as dataset.Keys declares them for the small SDSS tables.
var skyKeys = map[string][]string{"galaxy": {"objID"}, "specObj": {"bestObjID"}}

// skyLog is the SkyServer-style query log: three Listing-5-shaped join
// queries (photometry of spectroscopic objects in an (ra, dec, z) window)
// and two (ra, dec) scatter queries. The windows are pinned rather than
// drawn from the seed: MCTS outcomes are chaotic in the literals, and with
// seeded windows 12 seeds generated four different interfaces (NOISE.md).
// With this log every data seed tried generates the same interface: one
// (ra, dec) scatter whose pan drives the scatter query, and a join table
// driven by two range sliders (z and dec).
var skyLog = []string{
	`SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec FROM galaxy AS gal, specObj AS s WHERE s.bestObjID = gal.objID AND s.z BETWEEN 0.1802 AND 0.1921 AND s.ra BETWEEN 192.1786 AND 192.9587 AND s.dec BETWEEN 0.9963 AND 1.6752`,
	`SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec FROM galaxy AS gal, specObj AS s WHERE s.bestObjID = gal.objID AND s.z BETWEEN 0.1518 AND 0.165 AND s.ra BETWEEN 190.0225 AND 190.7588 AND s.dec BETWEEN 0.6043 AND 1.3085`,
	`SELECT DISTINCT gal.objID, gal.u, gal.g, gal.r, gal.i, gal.z, s.z, s.ra, s.dec FROM galaxy AS gal, specObj AS s WHERE s.bestObjID = gal.objID AND s.z BETWEEN 0.1629 AND 0.1708 AND s.ra BETWEEN 190.6171 AND 191.4071 AND s.dec BETWEEN 0.7163 AND 1.3556`,
	`SELECT DISTINCT ra, dec FROM specObj WHERE ra BETWEEN 192.4763 AND 192.8541 AND dec BETWEEN 0.6353 AND 0.9438`,
	`SELECT DISTINCT ra, dec FROM specObj WHERE ra BETWEEN 190.9325 AND 191.2855 AND dec BETWEEN 0.6745 AND 1.0184`,
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }
func round4(f float64) float64 { return math.Round(f*10000) / 10000 }

// skyRows draws n galaxy rows and the n specObj rows that observe them,
// with objIDs starting at firstID.
func skyRows(r *rand.Rand, firstID, n int) (gal, spec [][]engine.Value) {
	gal = make([][]engine.Value, n)
	spec = make([][]engine.Value, n)
	for i := 0; i < n; i++ {
		id := engine.NumVal(float64(firstID + i))
		base := 15 + r.Float64()*7
		gal[i] = []engine.Value{id,
			engine.NumVal(round3(base + 1.5 + r.Float64())),
			engine.NumVal(round3(base + 0.8 + r.Float64()*0.5)),
			engine.NumVal(round3(base)),
			engine.NumVal(round3(base - 0.3 + r.Float64()*0.3)),
			engine.NumVal(round3(base - 0.5 + r.Float64()*0.3)),
		}
		spec[i] = []engine.Value{id,
			engine.NumVal(round4(skyZLo + r.Float64()*(skyZHi-skyZLo))),
			engine.NumVal(round4(skyRaLo + r.Float64()*(skyRaHi-skyRaLo))),
			engine.NumVal(round4(skyDecLo + r.Float64()*(skyDecHi-skyDecLo))),
		}
	}
	return gal, spec
}

// newSkyDB builds the two SDSS-shaped tables with n rows each from seed.
func newSkyDB(seed int64, n int) *engine.DB {
	gal, spec := skyRows(rand.New(rand.NewSource(seed)), skyFirstID, n)
	num := engine.TNum
	db := engine.NewDB("2020-12-31")
	db.Add(&engine.Table{Name: "galaxy", Cols: []string{"objID", "u", "g", "r", "i", "z"},
		Types: []engine.ColType{num, num, num, num, num, num}, Rows: gal})
	db.Add(&engine.Table{Name: "specObj", Cols: []string{"bestObjID", "z", "ra", "dec"},
		Types: []engine.ColType{num, num, num, num}, Rows: spec})
	return db
}

// ndjson encodes rows as newline-delimited JSON objects keyed by column
// name, the body POST /ingest accepts.
func ndjson(cols []string, rows [][]engine.Value) []byte {
	var b bytes.Buffer
	obj := make(map[string]any, len(cols))
	enc := json.NewEncoder(&b)
	for _, row := range rows {
		for i, c := range cols {
			switch v := row[i]; {
			case v.Null:
				obj[c] = nil
			case v.IsStr:
				obj[c] = v.Str
			default:
				obj[c] = v.Num
			}
		}
		if err := enc.Encode(obj); err != nil {
			panic(err) // only finite numbers and strings reach here
		}
	}
	return b.Bytes()
}
