//! 2-D torus tile-grid geometry.

/// A tile identifier: the linear index `y * width + x`.
pub type TileId = u32;

/// The most tiles a grid may have: the paper's largest configuration,
/// 256x256. Tree rows store tile ids and row positions in 16 bits, which
/// is exact up to this size.
pub const MAX_TILES: usize = 1 << 16;

/// Panics unless a `width x height` grid has between 1 and
/// [`MAX_TILES`] tiles.
fn check_dims(width: usize, height: usize) {
    assert!(width > 0 && height > 0, "grid dimensions must be positive");
    assert!(
        width.checked_mul(height).is_some_and(|n| n <= MAX_TILES),
        "a {width}x{height} grid has more than {MAX_TILES} tiles"
    );
}

/// A rectangular grid of tiles connected as a 2-D torus (Table III's
/// topology; Fig. 19), or optionally as a plain mesh (no wraparound
/// links) for topology ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileGrid {
    width: usize,
    height: usize,
    wrap: bool,
}

impl TileGrid {
    /// Creates a `width x height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid has more than
    /// [`MAX_TILES`] tiles.
    pub fn new(width: usize, height: usize) -> Self {
        check_dims(width, height);
        TileGrid {
            width,
            height,
            wrap: true,
        }
    }

    /// A square `side x side` torus (the paper's configurations are all
    /// square: 64x64, 128x128, 256x256).
    pub fn square(side: usize) -> Self {
        TileGrid::new(side, side)
    }

    /// Creates a `width x height` *mesh*: same tiles and routers but no
    /// wraparound links, halving the bisection width. Used to quantify how
    /// much the paper's torus topology buys (see the `topology_study`
    /// example).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid has more than
    /// [`MAX_TILES`] tiles.
    pub fn mesh(width: usize, height: usize) -> Self {
        check_dims(width, height);
        TileGrid {
            width,
            height,
            wrap: false,
        }
    }

    /// Whether wraparound (torus) links exist.
    pub fn is_torus(&self) -> bool {
        self.wrap
    }

    /// Grid width (x extent).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (y extent).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.width * self.height
    }

    /// The `(x, y)` coordinate of a tile id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn coord(&self, id: TileId) -> (usize, usize) {
        let id = id as usize;
        assert!(id < self.num_tiles(), "tile id out of range");
        (id % self.width, id / self.width)
    }

    /// The tile id at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn id(&self, x: usize, y: usize) -> TileId {
        assert!(x < self.width && y < self.height, "coordinate out of range");
        (y * self.width + x) as TileId
    }

    /// Signed shortest x-offset from `a` to `b` on the torus
    /// (`-w/2 < dx <= w/2`).
    pub fn dx(&self, a: TileId, b: TileId) -> isize {
        let (ax, _) = self.coord(a);
        let (bx, _) = self.coord(b);
        delta(ax, bx, self.width, self.wrap)
    }

    /// Signed shortest y-offset from `a` to `b` on the torus.
    pub fn dy(&self, a: TileId, b: TileId) -> isize {
        let (_, ay) = self.coord(a);
        let (_, by) = self.coord(b);
        delta(ay, by, self.height, self.wrap)
    }

    /// [`TileGrid::dx`] and [`TileGrid::dy`] from the tile at `from`
    /// (as [`TileGrid::coord`] gives it) to `b`, with one division.
    pub(crate) fn offset(&self, from: (usize, usize), b: TileId) -> (isize, isize) {
        let (bx, by) = self.coord(b);
        (
            delta(from.0, bx, self.width, self.wrap),
            delta(from.1, by, self.height, self.wrap),
        )
    }

    /// Torus (Manhattan) hop distance between two tiles.
    pub fn distance(&self, a: TileId, b: TileId) -> usize {
        self.dx(a, b).unsigned_abs() + self.dy(a, b).unsigned_abs()
    }

    /// The neighbor of `t` one hop in direction `dir`.
    pub fn step(&self, t: TileId, dir: Direction) -> TileId {
        let (x, y) = self.coord(t);
        let (nx, ny) = match dir {
            Direction::East => ((x + 1) % self.width, y),
            Direction::West => ((x + self.width - 1) % self.width, y),
            Direction::North => (x, (y + self.height - 1) % self.height),
            Direction::South => (x, (y + 1) % self.height),
        };
        self.id(nx, ny)
    }

    /// The four neighbors of a tile (E, W, N, S order).
    pub fn neighbors(&self, t: TileId) -> [TileId; 4] {
        [
            self.step(t, Direction::East),
            self.step(t, Direction::West),
            self.step(t, Direction::North),
            self.step(t, Direction::South),
        ]
    }

    /// The port a hop in direction `dir` leaves through (for a hop that
    /// leaves its tile, so not along a 1-tile ring). On a 2-wide ring
    /// East and West reach the same neighbor, as do North and South on a
    /// 2-high one; such a link takes the first of the two in E, W, N, S
    /// order (the [`TileGrid::neighbors`] order), so every user of link
    /// directions agrees on one port per link.
    pub(crate) fn link_direction(&self, dir: Direction) -> Direction {
        match dir {
            Direction::West if self.width == 2 => Direction::East,
            Direction::South if self.height == 2 => Direction::North,
            d => d,
        }
    }

    /// The tiles along the XY (dimension-order) route from `a` to `b`,
    /// excluding `a`, including `b`. Takes the shortest wrap-around
    /// direction in each dimension.
    pub fn xy_route(&self, a: TileId, b: TileId) -> Vec<TileId> {
        let mut path = Vec::new();
        let mut cur = a;
        let dx = self.dx(a, b);
        let step_x = if dx >= 0 {
            Direction::East
        } else {
            Direction::West
        };
        for _ in 0..dx.unsigned_abs() {
            cur = self.step(cur, step_x);
            path.push(cur);
        }
        let dy = self.dy(a, b);
        let step_y = if dy >= 0 {
            Direction::South
        } else {
            Direction::North
        };
        for _ in 0..dy.unsigned_abs() {
            cur = self.step(cur, step_y);
            path.push(cur);
        }
        path
    }

    /// NoC bisection width in links: a 2-D torus of width `w` has `2 * 2 * h`
    /// links crossing a vertical cut (two rings per row, each contributing
    /// two crossing links); a mesh has half that.
    pub fn bisection_links(&self) -> usize {
        let rings = self.height.min(self.width);
        if self.wrap {
            4 * rings
        } else {
            2 * rings
        }
    }
}

/// Shortest signed offset from `a` to `b`: modulo `n` on a torus ring,
/// plain difference on a mesh.
fn delta(a: usize, b: usize, n: usize, wrap: bool) -> isize {
    if !wrap {
        return b as isize - a as isize;
    }
    let fwd = (b + n - a) % n; // steps in + direction
    if fwd <= n / 2 {
        fwd as isize
    } else {
        fwd as isize - n as isize
    }
}

/// A hop direction on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// +x.
    East,
    /// -x.
    West,
    /// -y.
    North,
    /// +y.
    South,
}

impl Direction {
    /// Every direction, in port-index order.
    pub(crate) const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];

    /// The port index of this direction: East, West, North and South
    /// are 0 to 3, the [`TileGrid::neighbors`] order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The reverse direction.
    pub(crate) fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let g = TileGrid::new(4, 3);
        assert_eq!(g.num_tiles(), 12);
        for id in 0..12u32 {
            let (x, y) = g.coord(id);
            assert_eq!(g.id(x, y), id);
        }
    }

    #[test]
    fn torus_distance_wraps() {
        let g = TileGrid::square(8);
        let a = g.id(0, 0);
        let b = g.id(7, 7);
        // Wrap-around: 1 hop in each dimension.
        assert_eq!(g.distance(a, b), 2);
        let c = g.id(4, 4);
        assert_eq!(g.distance(a, c), 8);
    }

    #[test]
    fn torus_delta_prefers_shortest() {
        assert_eq!(delta(0, 3, 8, true), 3);
        assert_eq!(delta(0, 5, 8, true), -3);
        assert_eq!(delta(0, 4, 8, true), 4); // tie goes forward
        assert_eq!(delta(2, 2, 8, true), 0);
    }

    #[test]
    fn mesh_has_no_wraparound() {
        let g = TileGrid::mesh(8, 8);
        assert!(!g.is_torus());
        let a = g.id(0, 0);
        let b = g.id(7, 7);
        // No wrap: full Manhattan distance.
        assert_eq!(g.distance(a, b), 14);
        // Routes stay inside the grid.
        let route = g.xy_route(a, b);
        assert_eq!(*route.last().unwrap(), b);
        assert_eq!(route.len(), 14);
    }

    #[test]
    fn mesh_bisection_is_half_of_torus() {
        assert_eq!(TileGrid::square(8).bisection_links(), 32);
        assert_eq!(TileGrid::mesh(8, 8).bisection_links(), 16);
    }

    #[test]
    fn steps_are_inverse() {
        let g = TileGrid::new(5, 7);
        for t in 0..g.num_tiles() as u32 {
            assert_eq!(g.step(g.step(t, Direction::East), Direction::West), t);
            assert_eq!(g.step(g.step(t, Direction::North), Direction::South), t);
        }
    }

    #[test]
    fn xy_route_reaches_destination() {
        let g = TileGrid::square(6);
        let a = g.id(1, 1);
        let b = g.id(4, 5);
        let route = g.xy_route(a, b);
        assert_eq!(*route.last().unwrap(), b);
        assert_eq!(route.len(), g.distance(a, b));
        // Consecutive tiles are neighbors.
        let mut prev = a;
        for &t in &route {
            assert!(g.neighbors(prev).contains(&t));
            prev = t;
        }
    }

    #[test]
    fn link_direction_is_the_first_neighbor_that_matches() {
        for (w, h) in [(1, 3), (2, 2), (2, 5), (3, 2), (4, 4), (5, 3)] {
            for g in [TileGrid::new(w, h), TileGrid::mesh(w, h)] {
                for t in 0..g.num_tiles() as u32 {
                    let n = g.neighbors(t);
                    for d in Direction::ALL.into_iter().filter(|&d| g.step(t, d) != t) {
                        let first = n.iter().position(|&x| x == g.step(t, d)).unwrap();
                        assert_eq!(g.link_direction(d).index(), first, "{w}x{h} {t} {d:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn xy_route_to_self_is_empty() {
        let g = TileGrid::square(4);
        assert!(g.xy_route(5, 5).is_empty());
    }

    #[test]
    fn paper_scale_grid_is_allowed() {
        assert_eq!(TileGrid::square(256).num_tiles(), MAX_TILES);
        assert_eq!(TileGrid::mesh(MAX_TILES, 1).num_tiles(), MAX_TILES);
    }

    #[test]
    #[should_panic(expected = "more than 65536 tiles")]
    fn grid_above_max_tiles_panics() {
        TileGrid::new(257, 256);
    }

    #[test]
    #[should_panic(expected = "more than 65536 tiles")]
    fn mesh_above_max_tiles_panics() {
        TileGrid::mesh(MAX_TILES + 1, 1);
    }

    #[test]
    #[should_panic(expected = "more than 65536 tiles")]
    fn overflowing_dimensions_panic() {
        TileGrid::new(usize::MAX, 2);
    }

    #[test]
    fn neighbors_are_distinct_on_big_grid() {
        let g = TileGrid::square(8);
        let n = g.neighbors(g.id(3, 3));
        let set: std::collections::HashSet<_> = n.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
