"""Size caps and budgets.

SEARCH_NODE_BUDGET is the default of every ``budget`` keyword, which callers
may raise.  Every other entry is a hard limit, read where it applies each
time it is checked.  Values are sized so that the full test suite runs in
seconds.
"""

# make_projective: number of binary cells
MAX_PROJECTIVE_DIMENSION = 10

# make_linear: word length n
MAX_LINEAR_DIMENSION = 8

# direct products and perfect devices: state count of the result
MAX_PRODUCT_STATES = 4096

# any constructed device: partition count of the result
MAX_DEVICE_PARTITIONS = 20000

# k_reads: partitions accumulated while closing under meets
MAX_KREAD_PARTITIONS = 20000

# backtracking searches: nodes explored before giving up
SEARCH_NODE_BUDGET = 10_000_000

# pair-count tables: bytes allowed; read by invariants._pair_counts, the
# signature's size check and the reduction search's pair-propagation skip
MAX_PAIR_BYTES = 300 * 2 ** 20

# binary factorization: states; read by factor_binary, factor_perfect's certification and the CLI
MAX_CERTIFIED_STATES = 64

# factor_binary audit: largest factor size in the exhaustive cross-check
MAX_FACTOR_STATES = 4

# brute_clique: vertex count beyond which exhaustive search is refused
MAX_BRUTE_VERTICES = 16
