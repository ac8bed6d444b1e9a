package star

import "fmt"

// DefaultRuleText is the built-in repertoire: the paper's Section 4 join
// STARs plus simplified single-table access STARs in the spirit of [LEE 88].
// It is data — parsed at engine setup, overridable by loading a user rule
// file on top — which is the paper's core extensibility claim.
const DefaultRuleText = `
# Root STAR for accessing one stored table: every way to produce the stream
# of quantifier T carrying columns C with predicates P applied.
star AccessRoot(T, C, P) = [
  | TableAccess(T, C, P)
  | IndexAccess(T, C, P)
]

# Sequential access via the table's storage manager (Section 4.5.2,
# [LIND 87]): exactly one flavor of ACCESS applies, by storage-manager kind.
star TableAccess(T, C, P) = {
  | ACCESS('heap', T, C, P) if stmgr(T, 'heap')
  | ACCESS('btree', T, C, P) otherwise
}

# One plan per index on T (Section 2.2's IndexAccess): probe or scan the
# index with the predicates matching its key prefix, then GET the remaining
# columns by TID, applying the leftover predicates — Figure 1's inner stream.
# The second family SORTs the TIDs taken from an unordered index before the
# GET, so data-page accesses happen in physical order, and the third family
# ANDs two indexes by intersecting their TIDs — the first two of the
# "omitted for brevity" STARs of Section 4, included here. The per-element
# conditions gate index pairs to those where each index applies at least one
# distinct predicate; the cost model decides among all families.
star IndexAccess(T, C, P) = [
  | forall i in indexes(T):
      GET(ACCESS('index', i, indexProbeCols(T, i), matchedPreds(P, T, i)),
          T, C, minus(P, matchedPreds(P, T, i)))
  | forall i in indexes(T):
      GET(SORT(ACCESS('index', i, indexProbeCols(T, i), matchedPreds(P, T, i)), tidcol(T)),
          T, C, minus(P, matchedPreds(P, T, i)))
  | forall i in indexes(T):
      forall j in indexes(T):
        GET(IXAND(ACCESS('index', i, indexProbeCols(T, i), matchedPreds(P, T, i)),
                  ACCESS('index', j, indexProbeCols(T, j),
                         matchedPreds(minus(P, matchedPreds(P, T, i)), T, j))),
            T, C,
            minus(P, union(matchedPreds(P, T, i),
                           matchedPreds(minus(P, matchedPreds(P, T, i)), T, j))))
        if nonempty(matchedPreds(P, T, i))
           and nonempty(matchedPreds(minus(P, matchedPreds(P, T, i)), T, j))
]

# Section 2.1's worked example, verbatim: two alternative definitions of an
# ordered stream over one table. The first SORTs a sequential access into
# the required order; the second exploits an access path whose key has the
# required order as a prefix ("order ⊑ a"), fetching the rest by TID. The
# join flow reaches ordered streams through Glue instead (which also
# considers plans that already exist), but the STAR is part of the paper's
# repertoire and is directly referenceable.
# lint: root
star OrderedStream(T, C, P, o) = [
  | SORT(TableAccess(T, C, P), o)
  | forall i in indexes(T):
      GET(ACCESS('index', i, indexProbeCols(T, i), matchedPreds(P, T, i)),
          T, C, minus(P, matchedPreds(P, T, i))) if pathPrefix(T, i, o)
]

# The root STAR for joins: referenced for every joinable pair of table sets
# with the newly eligible predicates (Section 2.3).
star JoinRoot(T1, T2, P) = PermutedJoin(T1, T2, P)

# Join permutation alternatives (Section 4.1): either table set may be the
# outer stream. Inclusive alternatives, no conditions.
star PermutedJoin(T1, T2, P) = [
  | JoinSite(T1, T2, P)
  | JoinSite(T2, T1, P)
]

# Join-site alternatives as in R* (Section 4.2): a local query bypasses the
# site requirement; otherwise the join is dictated at each site holding a
# table of the query, plus the query site.
star JoinSite(T1, T2, P) = {
  | SitedJoin(T1, T2, P) if localQuery()
  | forall s in allSites(): RemoteJoin(T1, T2, P, s) otherwise
}

# Require both streams delivered at site s; the requirement accumulates
# until Glue is referenced (Section 3.2).
star RemoteJoin(T1, T2, P, s) = SitedJoin(T1[site = s], T2[site = s], P)

# Section 4.3 stores a composite or must-move inner as a temp (condition
# C1). Here JMeth's forced-projection and dynamic-index alternatives ask Glue
# for every temp a method can use, and Glue ships before it stores; a temp
# under a hash join only adds its price. Editing such policy without touching
# optimizer code is the point of rules-as-data.
star SitedJoin(T1, T2, P) = JMeth(T1, T2, P)

# Alternative join methods (Sections 4.4 and 4.5). Each alternative is a
# reference of the JOIN LOLEPOP with: the method flavor, the outer stream,
# the inner stream, the predicates the method applies, and the residuals.
#   NL: always applicable; join and inner predicates are pushed down to the
#       inner stream (sideways information passing).
#   MG: requires sortable predicates; dictates order on both inputs.
#   HA: requires hashable predicates; they stay residual (hash collisions).
#   Forced projection (4.5.2): materialize the selected/projected inner and
#       re-access it, pushing only the join predicates to the re-access.
#   Dynamic index (4.5.3): require an index on the inner's indexable
#       columns, forcing Glue to create one when absent.
star JMeth(T1, T2, P) = [
  | JOIN('NL', Glue(T1, {}), Glue(T2, union(JP, IP)),
         JP, minus(P, union(JP, IP)))
  | JOIN('MG', Glue(T1[order = sortCols(SP, T1)], {}),
               Glue(T2[order = sortCols(SP, T2)], IP),
         SP, minus(P, union(IP, SP))) if nonempty(SP)
  | JOIN('HA', Glue(T1, {}), Glue(T2, IP),
         HP, minus(P, IP)) if nonempty(HP)
  | JOIN('NL', Glue(T1, {}), TableAccess(Glue(T2[temp], IP), *, JP),
         JP, minus(P, union(IP, JP))) if projectionPays(T2, IP)
  | JOIN('NL', Glue(T1, {}), Glue(T2[paths = indexCols(XP, IP, T2)], union(XP, IP)),
         minus(XP, IP), minus(P, union(XP, IP))) if nonempty(XP)
] where
  JP = joinPreds(P, T1, T2)
  SP = sortablePreds(P, T1, T2)
  HP = hashablePreds(P, T1, T2)
  XP = indexablePreds(P, T1, T2)
  IP = innerPreds(P, T2)
`

// BuiltinFile is the pseudo file name diagnostics use for positions inside
// the built-in rule text.
const BuiltinFile = "<builtin>"

// DefaultRules parses the built-in rule text. It panics only on programmer
// error (the text is a compile-time constant covered by tests).
func DefaultRules() *RuleSet {
	rs, err := ParseFile(DefaultRuleText, BuiltinFile)
	if err != nil {
		panic(fmt.Sprintf("star: built-in rules do not parse: %v", err))
	}
	return rs
}
