package main

import (
	"stars/internal/catalog"
	"stars/internal/storage"
	"stars/internal/workload"
)

// Sizes of the merged catalog's generated table families.
const (
	chainTables = 14
	starDims    = 8
)

// chainCards cycles over T1..T14 so neighbouring windows of the chain price
// differently (the cards -enum-bench's chain8 uses).
var chainCards = []int64{400, 150, 60, 200, 90, 500, 120, 80}

// buildCatalog returns the one catalog every workload runs against: EMP/DEPT
// with DEPT stored at a second site NY (queries arrive at LA), the chain
// tables T1..T14 and the star tables F, D1..D8 at the query site.
func buildCatalog() *catalog.Catalog {
	cat := workload.DistributedEmpDept()
	for _, t := range workload.ChainCatalog(chainTables, chainCards...).Tables {
		cat.AddTable(t)
	}
	for _, t := range workload.StarCatalog(starDims, 100000, 500).Tables {
		cat.AddTable(t)
	}
	return cat
}

// daemonSeed is the data seed the daemon is configured with, so the
// benchmark's own reference cluster holds the same rows.
const daemonSeed = 1

// referenceCluster holds the same EMP/DEPT demo rows the daemon executes
// against (serve.Config{Demo: true} populates only those two tables), for
// workload.Oracle and the replayed exec.Runtime.Run.
func referenceCluster(cat *catalog.Catalog) *storage.Cluster {
	c := storage.NewCluster(cat.Sites...)
	workload.PopulateEmpDept(c, cat, daemonSeed)
	return c
}
